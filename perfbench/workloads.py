"""The three benchmark workloads, each a closed loop run in one process.

Every workload builds its inputs from the seed, sets itself up (data, the
augmenters, model build, publish, start, warm-up), runs whole rounds of its
operation until the run length is reached, then hands its outputs to the
checks in :mod:`checks`.  Inputs are synthetic MNIST-analogue images, so the
same seed gives the same inputs.

* ``obfuscated_training`` — the paper's Figure-1 job: ``CloudSession.run``
  round trips (pack, cloud training, unpack, extract) on an augmented LeNet.
* ``offline_batch`` — 32-sample ``ExtractionProxy.predict_batch`` calls on a
  2-replica ``ClusterRouter`` (the synchronous path), alternating between an
  augmented LeNet and an augmented ``mobilenet_v2_small``.
* ``online_gateway`` — one client thread keeps a fixed window of
  single-sample requests in flight through ``ExtractionProxy.submit``, a
  ``RemoteClient`` and a loopback ``GatewayServer`` into a 2-replica router.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

import checks
import procstat

#: Augmentation amount and decoy count for every job (the paper's default
#: 50% with two decoy sub-networks).
AMOUNT = 0.5
DECOYS = 2

TRAIN_SAMPLES = 256
TRAIN_BATCH = 32
TRAIN_LR = 0.01

OFFLINE_BATCH = 32
OFFLINE_POOL_BATCHES = 8

GATEWAY_WINDOW = 8
GATEWAY_POOL = 64
GATEWAY_WARMUP = 16
GATEWAY_REPLICAS = 2


@dataclass
class Timed:
    """What the timed phase measured."""

    #: Operations attempted, and those of them that raised.
    ops: int = 0
    failed: int = 0
    first_failure: str = ""
    samples: int = 0
    elapsed_s: float = 0.0
    cpu_s: float = 0.0
    #: Wall milliseconds of each operation, per operation kind.
    latency_ms: Dict[str, List[float]] = field(default_factory=dict)
    thread_cpu_s: Dict[str, float] = field(default_factory=dict)
    #: Per-layer counts the workload reads from the program's own counters.
    counts: Dict[str, float] = field(default_factory=dict)

    def fail(self, error: BaseException) -> None:
        self.failed += 1
        self.first_failure = self.first_failure or f"{type(error).__name__}: {error}"


def _image_job(model, data, seed: int):
    from repro.core import Amalgam, AmalgamConfig

    config = AmalgamConfig(augmentation_amount=AMOUNT, num_subnetworks=DECOYS, seed=seed)
    return Amalgam(config).prepare_image_job(model, data)


def _lenet(seed: int):
    from repro.models import LeNet

    return LeNet(10, 1, 28, rng=np.random.default_rng(seed))


def _mobilenet(seed: int):
    from repro.models import mobilenet_v2_small

    return mobilenet_v2_small(10, 1, rng=np.random.default_rng(seed))


def _extracted(job, builder):
    """The original model, extracted from the augmented one, in eval mode."""
    from repro.core import ModelExtractor

    model = ModelExtractor(lambda: builder(0)).extract(job.augmented_model).model
    model.eval()
    return model


class Workload:
    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, seconds: float) -> Timed:
        raise NotImplementedError

    def check(self) -> None:
        """Raise :class:`checks.CheckFailed` if any output is wrong."""
        raise NotImplementedError

    def close(self) -> None:
        pass


class ObfuscatedTraining(Workload):
    """Repeated ``CloudSession.run`` round trips of one augmented LeNet job."""

    name = "obfuscated_training"

    def setup(self) -> None:
        from repro.cloud import CloudEnvironment, CloudSession
        from repro.data import make_mnist

        self.data = make_mnist(train_count=TRAIN_SAMPLES, val_count=TRAIN_BATCH,
                               seed=self.seed)
        model = _lenet(self.seed)
        self.initial_state = model.state_dict()
        self.job = _image_job(model, self.data, self.seed)
        self.session = CloudSession(CloudEnvironment())
        #: Digest of the model extracted after each round trip.
        self.extracted: List[bytes] = []
        self.upload_bytes = 0
        self._round()  # warm-up round trip; the checks replay it too

    def _round(self) -> None:
        result = self.session.run(self.job, lambda: _lenet(0), epochs=1, lr=TRAIN_LR,
                                  batch_size=TRAIN_BATCH)
        self.extracted.append(checks.state_digest(result.extraction.model.state_dict()))
        self.upload_bytes += result.uploaded_model_bytes + result.uploaded_dataset_bytes

    def run(self, seconds: float) -> Timed:
        timed = Timed(latency_ms={"round_trip": []})
        warm_rounds, warm_bytes = len(self.extracted), self.upload_bytes
        cpu0, threads0 = procstat.process_cpu(), procstat.thread_cpu()
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            began = time.perf_counter()
            timed.ops += 1
            try:
                self._round()
            except Exception as error:  # counted, and the run reported incorrect
                timed.fail(error)
                break  # the replay in check() needs every round, in order
            timed.latency_ms["round_trip"].append((time.perf_counter() - began) * 1e3)
        timed.elapsed_s = time.perf_counter() - start
        timed.cpu_s = procstat.process_cpu() - cpu0
        timed.thread_cpu_s = _delta(procstat.thread_cpu(), threads0)
        rounds = len(self.extracted) - warm_rounds
        timed.samples = rounds * TRAIN_SAMPLES
        timed.counts["cloud.upload_mb"] = (self.upload_bytes - warm_bytes) / 1e6 / max(rounds, 1)
        return timed

    def check(self) -> None:
        checks.training_equivalence(self.initial_state, self.data.train, self.extracted,
                                    lambda: _lenet(0), lr=TRAIN_LR, batch_size=TRAIN_BATCH)


class OfflineBatch(Workload):
    """Alternating 32-sample sync calls on two augmented models behind a router."""

    name = "offline_batch"
    models = (("lenet", _lenet), ("mobilenet", _mobilenet))

    def setup(self) -> None:
        from repro.cloud import CloudSession
        from repro.data import make_mnist
        from repro.serve import ClusterRouter, ExtractionProxy, ReplicaWorker

        data = make_mnist(train_count=OFFLINE_BATCH * OFFLINE_POOL_BATCHES,
                          val_count=OFFLINE_BATCH, seed=self.seed)
        images = data.train.samples
        self.batches = [images[index * OFFLINE_BATCH:(index + 1) * OFFLINE_BATCH]
                        for index in range(OFFLINE_POOL_BATCHES)]
        self.router = ClusterRouter([ReplicaWorker(f"replica-{index}")
                                     for index in range(GATEWAY_REPLICAS)])
        self.proxies = {}
        self.references = {}
        for offset, (model_id, builder) in enumerate(self.models):
            job = _image_job(builder(self.seed + offset), data, self.seed + offset)
            CloudSession.publish(job, self.router, model_id)
            self.proxies[model_id] = ExtractionProxy(job.secrets)
            self.references[model_id] = _extracted(job, builder)
        #: (model id, pool batch) -> bytes of the first rows served for it.
        self.first_rows: Dict[Tuple[str, int], bytes] = {}
        self.mismatched: List[Tuple[str, int]] = []
        for index in range(2):
            self._round(index)

    def _round(self, index: int, timed: Optional[Timed] = None) -> None:
        batch = index % OFFLINE_POOL_BATCHES
        for model_id, _ in self.models:
            began = time.perf_counter()
            if timed is not None:
                timed.ops += 1
            try:
                rows = self.proxies[model_id].predict_batch(self.router, model_id,
                                                            self.batches[batch])
            except Exception as error:  # counted, and the run reported incorrect
                if timed is None:  # a failing warm-up call fails the set-up
                    raise
                timed.fail(error)
                continue
            if timed is not None:
                timed.samples += len(rows)
                timed.latency_ms[model_id].append((time.perf_counter() - began) * 1e3)
            # Rows depend only on the raw batch (fresh noise goes to decoy
            # positions), so every call must repeat the first call's bytes.
            data = np.stack(rows).tobytes()
            first = self.first_rows.setdefault((model_id, batch), data)
            if data != first:
                self.mismatched.append((model_id, batch))

    def run(self, seconds: float) -> Timed:
        timed = Timed(latency_ms={model_id: [] for model_id, _ in self.models})
        misses0 = _misses(self.router)
        cpu0, threads0 = procstat.process_cpu(), procstat.thread_cpu()
        start = time.perf_counter()
        rounds = 0
        while time.perf_counter() - start < seconds:
            self._round(rounds, timed)
            rounds += 1
        timed.elapsed_s = time.perf_counter() - start
        timed.cpu_s = procstat.process_cpu() - cpu0
        timed.thread_cpu_s = _delta(procstat.thread_cpu(), threads0)
        timed.counts["registry.misses"] = _misses(self.router) - misses0
        return timed

    def check(self) -> None:
        if self.mismatched:
            model_id, batch = self.mismatched[0]
            raise checks.CheckFailed(f"{len(self.mismatched)} calls returned other rows than "
                                     f"the first call on {model_id} pool batch {batch}")
        for (model_id, batch), data in self.first_rows.items():
            expected = checks.reference_forward(self.references[model_id],
                                                self.batches[batch])
            rows = np.frombuffer(data, dtype=expected.dtype).reshape(expected.shape)
            checks.rows_match(rows, expected, f"{model_id} pool batch {batch}")


class OnlineGateway(Workload):
    """A fixed window of single-sample requests through the loopback gateway."""

    name = "online_gateway"

    def setup(self) -> None:
        from repro.cloud import CloudSession
        from repro.data import make_mnist
        from repro.serve import (ClusterRouter, ExtractionProxy, GatewayServer, RateLimiter,
                                 RemoteClient, ReplicaWorker, Telemetry, Validator)

        data = make_mnist(train_count=GATEWAY_POOL, val_count=8, seed=self.seed)
        self.images = data.train.samples
        job = _image_job(_lenet(self.seed), data, self.seed)
        self.reference = _extracted(job, _lenet)
        self.router = ClusterRouter([ReplicaWorker(f"replica-{index}")
                                     for index in range(GATEWAY_REPLICAS)])
        # Server-side stack; the limiter's budget is far above any rate here,
        # so it never refuses.
        self.router.swap_middleware([Validator(self.router), Telemetry(),
                                     RateLimiter(rate=1e9, capacity=1e9)])
        CloudSession.publish(job, self.router, "lenet")
        self.router.start()
        self.gateway = GatewayServer(self.router, server_id="bench").start()
        self.client = RemoteClient(*self.gateway.address, tenant="bench")
        self.proxy = ExtractionProxy(job.secrets)
        self.sent = 0
        #: Elementwise min and max of every answer per pool sample: if both
        #: are close to the reference, every answer is.
        self.lowest = np.full((GATEWAY_POOL, 10), np.inf, dtype=np.float32)
        self.highest = np.full((GATEWAY_POOL, 10), -np.inf, dtype=np.float32)
        self._window(GATEWAY_WARMUP, None)

    def _window(self, count: int, timed: Optional[Timed] = None,
                seconds: Optional[float] = None) -> int:
        """Keep the window full until ``count`` requests (or ``seconds``) are done.

        Returns the requests attempted.  A request that raises is counted in
        ``timed.failed``; during warm-up (``timed`` is None) it fails the set-up.
        """
        inflight = deque()
        start = time.perf_counter()
        done = 0

        def send() -> None:
            index = self.sent % GATEWAY_POOL
            self.sent += 1
            try:
                future = self.proxy.submit(self.client, "lenet", self.images[index])
            except Exception as error:  # counted, and the run reported incorrect
                if timed is None:
                    raise
                future = error
            inflight.append((index, time.perf_counter(), future))

        while True:
            more = (done + len(inflight) < count if seconds is None
                    else time.perf_counter() - start < seconds)
            while more and len(inflight) < GATEWAY_WINDOW:
                send()
                more = seconds is not None or done + len(inflight) < count
            if not inflight:
                return done
            index, began, future = inflight.popleft()
            done += 1
            try:
                if isinstance(future, Exception):
                    raise future
                row = future.result(timeout=60)
            except Exception as error:  # counted, and the run reported incorrect
                if timed is None:
                    raise
                timed.fail(error)
                continue
            np.minimum(self.lowest[index], row, out=self.lowest[index])
            np.maximum(self.highest[index], row, out=self.highest[index])
            if timed is not None:
                timed.samples += 1
                timed.latency_ms["request"].append((time.perf_counter() - began) * 1e3)

    def run(self, seconds: float) -> Timed:
        timed = Timed(latency_ms={"request": []})
        misses0 = _misses(self.router)
        cpu0, threads0 = procstat.process_cpu(), procstat.thread_cpu()
        start = time.perf_counter()
        timed.ops = self._window(0, timed, seconds=seconds)
        timed.elapsed_s = time.perf_counter() - start
        timed.cpu_s = procstat.process_cpu() - cpu0
        timed.thread_cpu_s = _delta(procstat.thread_cpu(), threads0)
        timed.counts["registry.misses"] = _misses(self.router) - misses0
        return timed

    def ledgers(self) -> Dict[str, int]:
        ledger = self.client.ledger()
        return {"sent": self.sent, "client_succeeded": ledger["succeeded"],
                "client_failed": ledger["failed"], "client_pending": ledger["pending"],
                "gateway_responses": self.gateway.stats()["responses"],
                "router_completed": self.router.counter("completed")}

    def check(self) -> None:
        checks.ledgers_agree(self.ledgers())
        expected = checks.reference_forward(self.reference, self.images)
        checks.rows_close(self.lowest, expected, "gateway answers (elementwise min)")
        checks.rows_close(self.highest, expected, "gateway answers (elementwise max)")

    def close(self) -> None:
        self.client.close()
        self.gateway.stop()
        self.router.stop()


WORKLOADS = {cls.name: cls for cls in (ObfuscatedTraining, OfflineBatch, OnlineGateway)}


def _misses(router) -> int:
    return sum(router.replica(replica_id).registry.misses
               for replica_id in router.replica_ids())


def _delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {key: after[key] - before.get(key, 0.0) for key in after}
