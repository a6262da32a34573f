"""Property-based tests: the tokenizer's words are the lower-cased
alphanumeric runs of the text, word by word.

The full-text index keys (``text_word_keys``) and ``contains`` both
read ``tokenize``, so a faster tokenizer may not split or case any text
differently.  Lower-casing a whole text first is not the same in
general: ``'İ'`` (U+0130) lowers to two characters, ``'K'`` (U+212A,
the Kelvin sign) to an ASCII ``k`` the word pattern then matches, and
fullwidth digits and ``ß`` are not in the pattern at all.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.indexing.keys import WORD_PREFIX, text_word_keys
from repro.query.predicates import _WORD, tokenize

#: Characters where per-word and whole-text lowering can differ, and
#: their ASCII neighbours.
TRICKY = "İKß１ａIi Kk Ss 09-_"
texts = st.one_of(
    st.text(max_size=40),
    st.text(alphabet=st.characters(max_codepoint=127), max_size=40),
    st.text(alphabet=TRICKY, max_size=24))


def _reference(text):
    return [word.lower() for word in _WORD.findall(text)]


@settings(max_examples=400, deadline=None)
@given(texts)
@example("İstanbul")
@example("Kelvin")
@example("Straße １２ Kelvin")
@example("The Lion Hunt the")
def test_tokenize_lowers_each_word(text):
    assert tokenize(text) == _reference(text)


@settings(max_examples=400, deadline=None)
@given(texts)
@example("İstanbul istanbul ISTANBUL")
@example("Kelvin kelvin")
def test_text_word_keys_are_distinct_reference_words(text):
    assert text_word_keys(text) == [
        WORD_PREFIX + word for word in dict.fromkeys(_reference(text))]
