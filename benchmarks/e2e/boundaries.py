"""The boundary table: which public function belongs to which layer.

Layers are the ``src/repro`` packages.  Every name is a public one
listed in ``scripts/api_surface.json`` (``tests/test_e2e_contract.py``
checks that), written ``"module:QualName"``; properties are named by
their attribute.  :class:`tracer.BoundaryTracer` wraps each of them for
one traced round.  A name that no longer resolves after a refactor is
skipped and counted in ``trace.boundaries_unresolved`` -- its time then
falls to the innermost boundary still open -- so the table can never
break the end-to-end numbers.

Tiny functions called hundreds of thousands of times from one hot loop
(``price_record``, ``CostBreakdown.add``, ``IDBlock`` row access) are
deliberately *not* boundaries: the wrapper would cost as much as the
call and inflate the caller's self time.  Their time is charged to the
boundary that loops over them (``span_inclusive_costs`` -> telemetry,
the join kernels -> engine).
"""

from __future__ import annotations

from typing import Dict, Tuple

__all__ = ["BOUNDARIES", "LAYERS", "MAX_PER_LAYER"]

#: Reporting order of the layers (one ``self_s`` / ``calls`` pair each).
LAYERS: Tuple[str, ...] = (
    "xmark", "xmldb", "query", "indexing", "engine", "store", "cloud",
    "sim", "telemetry", "costs", "warehouse", "serving", "tenancy",
    "mutations", "consistency", "resilience")

#: Cap on boundaries per layer, to keep tracing overhead bounded.  The
#: cloud layer alone has 16 service entry points on the hot paths.
MAX_PER_LAYER = 16


def _layer(layer: str, module: str, *names: str) -> Dict[str, str]:
    return {"{}:{}".format(module, name): layer for name in names}


BOUNDARIES: Dict[str, str] = {}

BOUNDARIES.update(_layer("xmark", "repro.xmark.corpus", "generate_corpus"))

BOUNDARIES.update(_layer(
    "xmldb", "repro.xmldb.parser", "parse_document"))
BOUNDARIES.update(_layer(
    "xmldb", "repro.xmldb.encoding",
    "encode_ids", "decode_ids", "decode_ids_block"))
BOUNDARIES.update(_layer(
    # The column properties force the lazy varint decode on first use.
    "xmldb", "repro.xmldb.blocks",
    "IDBlock.from_encoded", "IDBlock.from_encoded_chunks",
    "IDBlock.from_ids", "IDBlock.pres", "IDBlock.posts", "IDBlock.depths"))
BOUNDARIES.update(_layer(
    "xmldb", "repro.xmldb.serializer", "serialize", "subtree_xml"))

BOUNDARIES.update(_layer(
    "query", "repro.query.parser", "parse_query", "parse_pattern"))
BOUNDARIES.update(_layer(
    "query", "repro.query.workload", "workload_query", "workload"))

BOUNDARIES.update(_layer("indexing", "repro.indexing.lu",
                         "LUStrategy.extract"))
BOUNDARIES.update(_layer("indexing", "repro.indexing.lup",
                         "LUPStrategy.extract"))
BOUNDARIES.update(_layer("indexing", "repro.indexing.lui",
                         "LUIStrategy.extract"))
BOUNDARIES.update(_layer("indexing", "repro.indexing.two_lupi",
                         "TwoLUPIStrategy.extract"))
BOUNDARIES.update(_layer(
    "indexing", "repro.indexing.mapper",
    "DynamoIndexStore.write_entries", "DynamoIndexStore.read_key",
    "DynamoIndexStore.read_keys"))
BOUNDARIES.update(_layer(
    "indexing", "repro.indexing.lookup_plans",
    "BaseLookup.lookup_query", "LULookup.lookup_pattern",
    "LUPLookup.lookup_pattern", "LUILookup.lookup_pattern",
    "TwoLUPILookup.lookup_pattern"))

BOUNDARIES.update(_layer(
    "engine", "repro.engine.columnar",
    "make_twig_join", "BlockTwigJoin.matches",
    "BlockTwigJoin.matching_roots", "block_semi_join_ancestors",
    "block_semi_join_descendants", "block_stack_tree_join",
    "hash_join_indices"))
BOUNDARIES.update(_layer(
    "engine", "repro.engine.evaluator",
    "evaluate_query", "evaluate_pattern", "pattern_matches",
    "result_size_bytes"))
BOUNDARIES.update(_layer(
    "engine", "repro.engine.value_join", "join_query_rows"))

BOUNDARIES.update(_layer(
    "store", "repro.store.router",
    "StoreRouter.write_entries", "StoreRouter.read_key",
    "StoreRouter.read_keys", "StoreRouter.for_tenant"))
BOUNDARIES.update(_layer(
    "store", "repro.store.cache",
    "IndexCache.get", "IndexCache.put", "IndexCache.discard",
    "IndexCache.invalidate_table", "IndexCache.invalidate_tables",
    "IndexCache.invalidate_tenant", "IndexCache.invalidate_all",
    "payload_weight"))

BOUNDARIES.update(_layer(
    "cloud", "repro.cloud.dynamodb",
    "DynamoDB.put", "DynamoDB.batch_put", "DynamoDB.get",
    "DynamoDB.batch_get", "DynamoDB.scan", "DynamoDB.delete_item",
    "DynamoItem.size_bytes", "DynamoTable.raw_bytes",
    "DynamoTable.item_count"))
BOUNDARIES.update(_layer(
    "cloud", "repro.cloud.s3", "S3.put", "S3.get", "S3.delete"))
BOUNDARIES.update(_layer(
    "cloud", "repro.cloud.sqs",
    "SQS.send", "SQS.receive", "SQS.delete", "SQS.renew"))

BOUNDARIES.update(_layer(
    # ``Environment.step`` is one simulated event: ``sim.calls`` counts
    # events through it.  Process bodies that are not boundaries
    # themselves (nested driver/traffic closures) are charged here.
    "sim", "repro.sim.engine",
    "Environment.step", "Environment.process", "Environment.schedule",
    "Environment.timeout"))
BOUNDARIES.update(_layer("sim", "repro.sim.metering", "Meter.record"))
BOUNDARIES.update(_layer(
    "sim", "repro.sim.resources",
    "Resource.request", "Resource.release", "Store.put", "Store.get",
    "ThroughputLimiter.consume"))

BOUNDARIES.update(_layer(
    "telemetry", "repro.telemetry.spans",
    "Tracer.begin", "Tracer.finish", "Tracer.on_process_spawned"))
BOUNDARIES.update(_layer(
    "telemetry", "repro.telemetry",
    "TelemetryHub.current_span_id", "TelemetryHub.counter"))
BOUNDARIES.update(_layer(
    "telemetry", "repro.telemetry.registry",
    "Counter.inc", "Gauge.set", "Histogram.observe"))
BOUNDARIES.update(_layer(
    "telemetry", "repro.telemetry.costing",
    "span_inclusive_costs", "span_direct_costs", "priced_breakdown"))

BOUNDARIES.update(_layer(
    "costs", "repro.costs.estimator",
    "phase_cost", "activity_cost", "build_phase_cost", "query_cost"))

BOUNDARIES.update(_layer(
    "warehouse", "repro.warehouse.warehouse",
    "Warehouse.upload_corpus", "Warehouse.build_index",
    "Warehouse.build_index_checkpointed", "Warehouse.live_index",
    "Warehouse.run_workload", "Warehouse.run_query", "Warehouse.serve"))
BOUNDARIES.update(_layer(
    "warehouse", "repro.warehouse.frontend",
    "Frontend.submit", "Frontend.await_response",
    "Frontend.store_document", "Frontend.request_load"))
BOUNDARIES.update(_layer(
    "warehouse", "repro.warehouse.loader", "IndexerWorker.run"))
BOUNDARIES.update(_layer(
    "warehouse", "repro.warehouse.query_processor", "QueryWorker.run"))

BOUNDARIES.update(_layer(
    "serving", "repro.serving.runtime", "ServingRuntime.run"))
BOUNDARIES.update(_layer(
    "serving", "repro.serving.admission", "AdmissionController.decide"))
BOUNDARIES.update(_layer(
    "serving", "repro.serving.autoscaler",
    "Autoscaler.run", "Autoscaler.evaluate", "Fleet.launch",
    "Fleet.retire"))
BOUNDARIES.update(_layer(
    "serving", "repro.serving.traffic", "TrafficGenerator.schedule"))

BOUNDARIES.update(_layer(
    "tenancy", "repro.tenancy.fairshare",
    "FairShareQueue.push", "FairShareQueue.pop"))
BOUNDARIES.update(_layer(
    "tenancy", "repro.tenancy.billing",
    "tenant_costs", "tenant_of_span", "reconcile"))

BOUNDARIES.update(_layer(
    "mutations", "repro.mutations.live",
    "LiveIndex.publish_add", "LiveIndex.publish_delete",
    "LiveIndex.publish_update", "LiveIndex.refresh",
    "LiveIndex.delta_layers"))
BOUNDARIES.update(_layer(
    "mutations", "repro.mutations.compactor",
    "Compactor.run", "CompactionPolicy.should_compact"))
BOUNDARIES.update(_layer(
    "mutations", "repro.mutations.merge",
    "MergingStore.read_key", "MergingStore.read_keys",
    "overlay_payloads"))

BOUNDARIES.update(_layer(
    "consistency", "repro.consistency.manifest",
    "Manifest.committed", "Manifest.live_head", "Manifest.commit",
    "Manifest.put_live_head", "Manifest.drop_compacted",
    "Manifest.list_records"))
BOUNDARIES.update(_layer(
    "consistency", "repro.consistency.ledger",
    "BatchLedger.lookup", "BatchLedger.record", "BatchLedger.entries"))
BOUNDARIES.update(_layer(
    "consistency", "repro.consistency.build",
    "BuildCoordinator.prepare", "BuildCoordinator.commit",
    "partition_batches", "items_digest"))

BOUNDARIES.update(_layer(
    "resilience", "repro.resilience.client", "ResilientClient.call"))
