#!/usr/bin/env python
"""Portability study (§3, Table 1): the same warehouse priced on three
commercial clouds.

"While we have instantiated the above architecture based on AWS, it can
be easily ported to other well-known commercial clouds, since their
services ranges are quite similar."  The cost model is parametric in a
price book; this example runs one deployment and prices the identical
run under AWS-, Google- and Azure-like books.
"""

from repro import Warehouse, generate_corpus, workload
from repro.bench.reporting import format_money, format_table
from repro.config import ScaleProfile
from repro.costs.estimator import build_phase_cost, workload_cost
from repro.costs.metrics import DatasetMetrics, IndexMetrics
from repro.costs.model import index_build_cost, monthly_storage_cost
from repro.costs.pricing import PRICE_BOOKS


def main() -> None:
    corpus = generate_corpus(ScaleProfile(documents=150,
                                          document_bytes=8 * 1024))
    warehouse = Warehouse()
    warehouse.upload_corpus(corpus)
    index = warehouse.build_index("LUP", loaders=4)
    report = warehouse.run_workload(workload(), index)

    dataset = DatasetMetrics.of_corpus(corpus)
    index_metrics = IndexMetrics.of_report(index.report)

    rows = []
    for name, book in PRICE_BOOKS.items():
        rows.append([
            "{} ({})".format(name, book.region),
            format_money(index_build_cost(book, dataset, index_metrics)),
            format_money(monthly_storage_cost(book, dataset,
                                              index_metrics)),
            format_money(workload_cost(report.executions, dataset, book)),
        ])
    print("One LUP deployment, priced under three providers' books:")
    print(format_table(
        ["provider", "index build", "storage/month", "workload run"],
        rows))

    aws_bill = build_phase_cost(warehouse, index)
    print("\nAWS measured build bill by service: "
          "DynamoDB {}  EC2 {}  S3 {}  SQS {}".format(
              format_money(aws_bill.dynamodb), format_money(aws_bill.ec2),
              format_money(aws_bill.s3), format_money(aws_bill.sqs)))


if __name__ == "__main__":
    main()
