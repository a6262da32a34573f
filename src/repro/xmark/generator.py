"""Split XMark-style document generator.

Produces five kinds of small documents, mirroring what XMark's ``split``
option yields from the auction-site schema (items, people, open
auctions, closed auctions, categories), with globally consistent
cross-references: auctions reference existing person/item ids, people's
interests reference existing categories.  Those references are what the
value-join queries (the paper's q8-q10) join on.

Generation is fully deterministic for a given
:class:`~repro.config.ScaleProfile`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.config import ScaleProfile
from repro.xmark.vocabulary import Vocabulary
from repro.xmldb.model import Document, Element, Text
from repro.xmldb.serializer import serialize

#: Document-kind mix (fractions of the corpus, in generation order —
#: people, items and categories first so auctions can reference them).
KIND_MIX: Tuple[Tuple[str, float], ...] = (
    ("people", 0.25),
    ("items", 0.35),
    ("categories", 0.05),
    ("auctions", 0.20),
    ("closed", 0.15),
)


def _text_child(parent: Element, label: str, value: str) -> Element:
    child = Element(label=label)
    child.add(Text(value=value))
    parent.add(child)
    return child


@dataclass
class GeneratedDocument:
    """A generated document plus its serialized bytes."""

    document: Document
    data: bytes
    kind: str


class XMarkGenerator:
    """Generates the corpus described by a :class:`ScaleProfile`."""

    def __init__(self, scale: ScaleProfile) -> None:
        self.scale = scale
        self._rng = random.Random(scale.seed)
        self._vocab = Vocabulary(self._rng)
        self._person_count = 0
        self._item_count = 0
        self._category_count = 0
        self._auction_count = 0
        # Prose length scales with the per-document size target: the
        # fixed structure of a document is ~1-2 KB, the rest is prose.
        self._prose_scale = max(1.0, scale.document_bytes / (2.0 * 1024))

    # -- public API ----------------------------------------------------------

    def generate(self) -> List[GeneratedDocument]:
        """Generate the full corpus, in a deterministic order."""
        plan = self._plan_kinds()
        builders: Dict[str, Callable[[Element], None]] = {
            "people": self._person,
            "items": self._item,
            "categories": self._category,
            "auctions": self._open_auction,
            "closed": self._closed_auction,
        }
        out: List[GeneratedDocument] = []
        serial = 0
        for kind, count in plan:
            for _ in range(count):
                serial += 1
                root = Element(label=kind)
                for _ in range(self._rng.randint(1, 3)):
                    builders[kind](root)
                uri = "{}-{:05d}.xml".format(kind, serial)
                document = Document(uri=uri, root=root)
                data = serialize(document)
                document.size_bytes = len(data)
                out.append(GeneratedDocument(document=document, data=data,
                                             kind=kind))
        return out

    def _plan_kinds(self) -> List[Tuple[str, int]]:
        """Number of documents per kind, summing to ``scale.documents``."""
        total = self.scale.documents
        plan: List[Tuple[str, int]] = []
        assigned = 0
        for kind, fraction in KIND_MIX[:-1]:
            count = max(1, round(total * fraction)) if total >= len(KIND_MIX) \
                else (1 if assigned < total else 0)
            count = min(count, total - assigned)
            plan.append((kind, count))
            assigned += count
        plan.append((KIND_MIX[-1][0], total - assigned))
        return plan

    # -- id pools ---------------------------------------------------------------

    def _ref_person(self) -> str:
        upper = max(1, self._person_count)
        return "person{}".format(self._rng.randrange(upper))

    def _ref_item(self) -> str:
        upper = max(1, self._item_count)
        return "item{}".format(self._rng.randrange(upper))

    def _ref_category(self) -> str:
        upper = max(1, self._category_count)
        return "cat{}".format(self._rng.randrange(upper))

    def _prose(self, low: int, high: int) -> str:
        scaled_low = max(1, int(low * self._prose_scale))
        scaled_high = max(scaled_low, int(high * self._prose_scale))
        return self._vocab.prose(scaled_low, scaled_high)

    # -- entity builders ------------------------------------------------------------

    def _person(self, parent: Element) -> None:
        rng, vocab = self._rng, self._vocab
        person = Element(label="person")
        person.set_attribute("id", "person{}".format(self._person_count))
        self._person_count += 1
        name = vocab.full_name()
        _text_child(person, "name", name)
        _text_child(person, "emailaddress", vocab.email(name))
        if rng.random() < 0.6:
            _text_child(person, "phone", vocab.phone())
        if rng.random() < 0.8:
            address = Element(label="address")
            _text_child(address, "street", "{} {} St".format(
                rng.randint(1, 99), vocab.last_name()))
            _text_child(address, "city", vocab.city())
            _text_child(address, "country", vocab.country())
            _text_child(address, "zipcode", str(rng.randint(10000, 99999)))
            person.add(address)
        if rng.random() < 0.3:
            _text_child(person, "homepage", "http://www.example.com/~" +
                        name.split()[-1].lower())
        if rng.random() < 0.5:
            _text_child(person, "creditcard", " ".join(
                str(rng.randint(1000, 9999)) for _ in range(4)))
        if rng.random() < 0.75:
            profile = Element(label="profile")
            profile.set_attribute("income", "{:.2f}".format(
                rng.uniform(9000, 90000)))
            for _ in range(rng.randint(0, 3)):
                interest = Element(label="interest")
                interest.set_attribute("category", self._ref_category())
                profile.add(interest)
            if rng.random() < 0.6:
                _text_child(profile, "education", vocab.education())
            if rng.random() < 0.7:
                _text_child(profile, "gender", rng.choice(("male", "female")))
            _text_child(profile, "business", rng.choice(("Yes", "No")))
            if rng.random() < 0.6:
                _text_child(profile, "age", str(rng.randint(18, 90)))
            person.add(profile)
        if rng.random() < 0.4:
            watches = Element(label="watches")
            for _ in range(rng.randint(1, 3)):
                watch = Element(label="watch")
                watch.set_attribute(
                    "open_auction", "open{}".format(
                        self._rng.randrange(max(1, self._auction_count + 40))))
                watches.add(watch)
            person.add(watches)
        parent.add(person)

    def _item(self, parent: Element) -> None:
        rng, vocab = self._rng, self._vocab
        item = Element(label="item")
        item.set_attribute("id", "item{}".format(self._item_count))
        self._item_count += 1
        if rng.random() < 0.1:
            item.set_attribute("featured", "yes")
        _text_child(item, "location", vocab.country())
        _text_child(item, "quantity", str(rng.randint(1, 5)))
        _text_child(item, "name", vocab.item_name())
        _text_child(item, "payment", vocab.payment())
        description = Element(label="description")
        if rng.random() < 0.3:
            parlist = Element(label="parlist")
            for _ in range(rng.randint(1, 3)):
                _text_child(parlist, "listitem", self._prose(8, 25))
            description.add(parlist)
        else:
            description.add(Text(value=self._prose(15, 60)))
        item.add(description)
        _text_child(item, "shipping", vocab.shipping())
        for _ in range(rng.randint(1, 3)):
            incategory = Element(label="incategory")
            incategory.set_attribute("category", self._ref_category())
            item.add(incategory)
        if rng.random() < 0.5:
            mailbox = Element(label="mailbox")
            for _ in range(rng.randint(1, 2)):
                mail = Element(label="mail")
                _text_child(mail, "from", vocab.full_name())
                _text_child(mail, "to", vocab.full_name())
                _text_child(mail, "date", vocab.date())
                _text_child(mail, "text", self._prose(5, 20))
                mailbox.add(mail)
            item.add(mailbox)
        parent.add(item)

    def _category(self, parent: Element) -> None:
        category = Element(label="category")
        category.set_attribute("id", "cat{}".format(self._category_count))
        self._category_count += 1
        _text_child(category, "name", self._vocab.item_name(
            marker_probability=0.02))
        description = Element(label="description")
        description.add(Text(value=self._prose(10, 30)))
        category.add(description)
        parent.add(category)

    def _open_auction(self, parent: Element) -> None:
        rng, vocab = self._rng, self._vocab
        auction = Element(label="open_auction")
        auction.set_attribute("id", "open{}".format(self._auction_count))
        self._auction_count += 1
        start_price = rng.uniform(5, 300)
        _text_child(auction, "initial", "{:.2f}".format(start_price))
        if rng.random() < 0.4:
            _text_child(auction, "reserve", "{:.2f}".format(
                start_price * rng.uniform(1.2, 3.0)))
        current = start_price
        for _ in range(rng.randint(0, 4)):
            bidder = Element(label="bidder")
            _text_child(bidder, "date", vocab.date())
            _text_child(bidder, "time", "{:02d}:{:02d}:{:02d}".format(
                rng.randint(0, 23), rng.randint(0, 59), rng.randint(0, 59)))
            personref = Element(label="personref")
            personref.set_attribute("person", self._ref_person())
            bidder.add(personref)
            increase = rng.uniform(1.5, 30)
            current += increase
            _text_child(bidder, "increase", "{:.2f}".format(increase))
            auction.add(bidder)
        _text_child(auction, "current", "{:.2f}".format(current))
        if rng.random() < 0.2:
            _text_child(auction, "privacy", "Yes")
        itemref = Element(label="itemref")
        itemref.set_attribute("item", self._ref_item())
        auction.add(itemref)
        seller = Element(label="seller")
        seller.set_attribute("person", self._ref_person())
        auction.add(seller)
        auction.add(self._annotation())
        _text_child(auction, "quantity", str(rng.randint(1, 3)))
        _text_child(auction, "type", vocab.auction_type())
        interval = Element(label="interval")
        _text_child(interval, "start", vocab.date(1998, 2000))
        _text_child(interval, "end", vocab.date(2001, 2002))
        auction.add(interval)
        parent.add(auction)

    def _closed_auction(self, parent: Element) -> None:
        rng, vocab = self._rng, self._vocab
        auction = Element(label="closed_auction")
        seller = Element(label="seller")
        seller.set_attribute("person", self._ref_person())
        auction.add(seller)
        buyer = Element(label="buyer")
        buyer.set_attribute("person", self._ref_person())
        auction.add(buyer)
        itemref = Element(label="itemref")
        itemref.set_attribute("item", self._ref_item())
        auction.add(itemref)
        _text_child(auction, "price", "{:.2f}".format(rng.uniform(5, 500)))
        _text_child(auction, "date", vocab.date())
        _text_child(auction, "quantity", str(rng.randint(1, 3)))
        _text_child(auction, "type", vocab.auction_type())
        auction.add(self._annotation())
        parent.add(auction)

    def _annotation(self) -> Element:
        annotation = Element(label="annotation")
        author = Element(label="author")
        author.set_attribute("person", self._ref_person())
        annotation.add(author)
        description = Element(label="description")
        description.add(Text(value=self._prose(8, 30)))
        annotation.add(description)
        _text_child(annotation, "happiness", str(self._rng.randint(1, 10)))
        return annotation
