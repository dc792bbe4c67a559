"""Metric definitions: the end-to-end set and the per-layer set.

Per-layer ``_ms`` metrics are milliseconds per timed operation (a round trip,
a 32-sample call, or a request), except ``trainer.*_ms`` (per optimizer
step), the two augmenter metrics (set-up totals) and the ``*_wait_ms`` ones
(mean per request that waited).  A layer a workload does not use reads 0.
"""

from __future__ import annotations

import statistics
from typing import Dict, List

import procstat

END_TO_END = {
    "cpu_ms_per_sample": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: Wall-clock rate and latency: printed on every run, but per-layer (no
#: bound).  On a host with heavy CPU steal the gateway's spread wider than any
#: bound a gate may hold, and a metric is bounded on every workload or on none
#: (see README).
WALL_CLOCK = {"throughput_sps": "1/s", "latency_p50_ms": "ms"}

#: Leaf module classes the three workloads run (``Conv2dDepthwise`` is a
#: ``Conv2d`` with groups > 1).
NN_CLASSES = ("Conv2d", "Conv2dDepthwise", "BatchNorm2d", "ReLU6", "MaxPool2d",
              "GlobalAvgPool2d", "Flatten", "Linear", "InputSelector")

#: span name -> metric name, reported as inclusive ms per operation.
PER_OP_INCLUSIVE = {
    "cloud.pack": "cloud.pack_ms",
    "cloud.unpack": "cloud.unpack_ms",
    "extractor.extract": "extractor.extract_ms",
    "proxy.augment": "proxy.augment_ms",
    "proxy.select": "proxy.select_ms",
    "batcher.run_batch": "batcher.run_batch_ms",
    "registry.get": "registry.get_ms",
    "middleware.chain": "middleware.chain_ms",
    "cluster.dispatch": "cluster.dispatch_ms",
}
PER_STEP = {
    "model.forward": "trainer.forward_ms",
    "trainer.backward": "trainer.backward_ms",
    "trainer.optimizer": "trainer.optimizer_ms",
}
SETUP_TOTAL = {
    "dataset_augmenter.augment": "dataset_augmenter.augment_ms",
    "model_augmenter.augment": "model_augmenter.augment_ms",
}
PER_FRAME_US = {"wire.encode": "wire.encode_us", "wire.decode": "wire.decode_us"}
WAITS = {"server.queue_wait": "server.queue_wait_ms",
         "cluster.admission_wait": "cluster.admission_wait_ms"}


def per_layer_names() -> List[str]:
    names = list(WALL_CLOCK) + list(SETUP_TOTAL.values()) + list(PER_OP_INCLUSIVE.values())
    names += list(PER_STEP.values()) + ["trainer.steps", "cloud.upload_mb"]
    names += [f"nn.{kind}.self_ms" for kind in NN_CLASSES] + ["nn.glue_ms"]
    names += ["batcher.rows_per_batch", "batcher.padded_rows", "registry.misses"]
    names += list(WAITS.values()) + list(PER_FRAME_US.values())
    names += [f"threads.{role}.cpu_ms_per_sample" for role in procstat.THREAD_ROLES]
    names += ["gateway.latency_p50_ms", "gateway.latency_tail_ms", "gateway.throughput_rps"]
    return names


PER_LAYER_UNITS = {
    **WALL_CLOCK,
    "trainer.steps": "count",
    "cloud.upload_mb": "MB",
    "batcher.rows_per_batch": "count",
    "batcher.padded_rows": "count",
    "registry.misses": "count",
    "wire.encode_us": "us",
    "wire.decode_us": "us",
    "gateway.throughput_rps": "1/s",
}


def unit_of(name: str) -> str:
    return PER_LAYER_UNITS.get(name, "ms")


def tail(values: List[float]) -> float:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    return ordered[-11] if len(ordered) > 10 else ordered[-1]


def latency_p50(latency_ms: Dict[str, List[float]]) -> float:
    """Median per operation kind, averaged over kinds (one kind per model)."""
    medians = [statistics.median(values) for values in latency_ms.values() if values]
    return statistics.fmean(medians) if medians else 0.0


def end_to_end(timed, setup_s: float) -> Dict[str, float]:
    return {
        "cpu_ms_per_sample": timed.cpu_s * 1e3 / max(timed.samples, 1),
        "setup_s": setup_s,
        "peak_rss_mb": procstat.peak_rss_mb(),
    }


def wall_clock(timed) -> Dict[str, float]:
    return {"throughput_sps": timed.samples / timed.elapsed_s,
            "latency_p50_ms": latency_p50(timed.latency_ms)}


def thread_metrics(timed) -> Dict[str, float]:
    return {f"threads.{role}.cpu_ms_per_sample": seconds * 1e3 / max(timed.samples, 1)
            for role, seconds in timed.thread_cpu_s.items()}


def gateway_reference(workload_name: str, timed) -> Dict[str, float]:
    values = {"gateway.latency_p50_ms": 0.0, "gateway.latency_tail_ms": 0.0,
              "gateway.throughput_rps": 0.0}
    latency = timed.latency_ms.get("request")
    if workload_name == "online_gateway" and latency:
        values = {"gateway.latency_p50_ms": statistics.median(latency),
                  "gateway.latency_tail_ms": tail(latency),
                  "gateway.throughput_rps": timed.samples / timed.elapsed_s}
    return values


def per_layer(recorder, timed, workload_name: str) -> Dict[str, float]:
    ops = max(timed.ops, 1)
    values: Dict[str, float] = wall_clock(timed)
    for span, name in SETUP_TOTAL.items():
        values[name] = recorder.total(span, "setup")[1] * 1e3
    for span, name in PER_OP_INCLUSIVE.items():
        values[name] = recorder.total(span)[1] * 1e3 / ops
    steps = recorder.total("trainer.optimizer")[0]
    for span, name in PER_STEP.items():
        values[name] = recorder.total(span)[1] * 1e3 / steps if steps else 0.0
    values["trainer.steps"] = steps / ops
    values["cloud.upload_mb"] = timed.counts.get("cloud.upload_mb", 0.0)
    for kind in NN_CLASSES:
        values[f"nn.{kind}.self_ms"] = recorder.total(f"nn.{kind}")[2] * 1e3 / ops
    values["nn.glue_ms"] = (recorder.total("nn.glue")[2]
                            + recorder.total("model.forward")[2]) * 1e3 / ops
    batches, rows = recorder.observed("batcher.rows")
    values["batcher.rows_per_batch"] = rows / batches if batches else 0.0
    padded_batches, padded = recorder.observed("batcher.padded")
    values["batcher.padded_rows"] = padded / padded_batches if padded_batches else 0.0
    values["registry.misses"] = float(timed.counts.get("registry.misses", 0))
    for sample, name in WAITS.items():
        count, total = recorder.observed(sample)
        values[name] = total * 1e3 / count if count else 0.0
    for span, name in PER_FRAME_US.items():
        calls, inclusive, _ = recorder.total(span)
        values[name] = inclusive * 1e6 / calls if calls else 0.0
    values.update(thread_metrics(timed))
    values.update(gateway_reference(workload_name, timed))
    return {name: values[name] for name in per_layer_names()}
