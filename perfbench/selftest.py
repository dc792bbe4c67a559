"""The benchmark's own tests: each correctness check must reject a wrong answer.

Run from the repository root::

    python3 perfbench/selftest.py

Each check is fed the right answer (accepted) and a wrong one (rejected):
a decoy sub-network's output in place of the original's, untrained or
differently trained weights in place of the extracted model, and a request
ledger with one answer missing.  A call that raises must be counted as
failed while the run goes on.
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from repro.cloud import CloudEnvironment, CloudSession  # noqa: E402
from repro.core import ClassificationTrainer  # noqa: E402
from repro.data import DataLoader, make_mnist  # noqa: E402
from repro.utils.rng import get_rng  # noqa: E402
from repro.serve import Batcher, ExtractionProxy, InferenceServer, ModelRegistry  # noqa: E402


class ServingChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        data = make_mnist(train_count=8, val_count=8, seed=3)
        cls.images = data.train.samples
        job = workloads._image_job(workloads._lenet(3), data, 3)
        registry = ModelRegistry()
        CloudSession.publish(job, registry, "lenet")
        server = InferenceServer(registry, Batcher(padding="none"))
        proxy = ExtractionProxy(job.secrets)
        stacked = np.stack(server.predict_batch("lenet", list(proxy.augment_batch(cls.images))))
        # stacked: (samples, subnetworks, classes)
        cls.original = stacked[:, job.secrets.original_subnetwork_index]
        decoy = (job.secrets.original_subnetwork_index + 1) % stacked.shape[1]
        cls.decoy = stacked[:, decoy]
        cls.reference = checks.reference_forward(workloads._extracted(job, workloads._lenet),
                                                 cls.images)

    def test_offline_rows_accept_the_original_subnetwork(self) -> None:
        checks.rows_match(self.original, self.reference, "original")

    def test_offline_rows_reject_a_decoy_output(self) -> None:
        with self.assertRaises(checks.CheckFailed):
            checks.rows_match(self.decoy, self.reference, "decoy")

    def test_offline_rows_reject_a_one_ulp_change(self) -> None:
        nudged = np.nextafter(self.original, np.inf)
        with self.assertRaises(checks.CheckFailed):
            checks.rows_match(nudged, self.reference, "nudged")

    def test_gateway_rows_accept_rounding_and_reject_a_decoy(self) -> None:
        checks.rows_close(np.nextafter(self.original, np.inf), self.reference, "rounding")
        with self.assertRaises(checks.CheckFailed):
            checks.rows_close(self.decoy, self.reference, "decoy")

    def test_gateway_rows_reject_answers_for_other_samples(self) -> None:
        with self.assertRaises(checks.CheckFailed):
            checks.rows_close(self.original[::-1], self.reference, "shuffled")


class LedgerCheck(unittest.TestCase):
    ledger = {"sent": 10, "client_succeeded": 10, "client_failed": 0, "client_pending": 0,
              "gateway_responses": 10, "router_completed": 10}

    def test_accepts_a_balanced_ledger(self) -> None:
        checks.ledgers_agree(dict(self.ledger))

    def test_rejects_each_kind_of_imbalance(self) -> None:
        for key, value in (("gateway_responses", 9), ("router_completed", 11),
                           ("client_succeeded", 9), ("client_failed", 1),
                           ("client_pending", 1)):
            with self.subTest(key=key), self.assertRaises(checks.CheckFailed):
                checks.ledgers_agree({**self.ledger, key: value})


class TrainingCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        cls.data = make_mnist(train_count=32, val_count=8, seed=5)
        model = workloads._lenet(5)
        cls.initial = model.state_dict()
        job = workloads._image_job(model, cls.data, 5)
        session = CloudSession(CloudEnvironment())
        cls.extracted = [checks.state_digest(
            session.run(job, lambda: workloads._lenet(0), epochs=1, lr=0.01,
                        batch_size=16).extraction.model.state_dict()) for _ in range(2)]

    def replay(self, extracted) -> None:
        checks.training_equivalence(self.initial, self.data.train, extracted,
                                    lambda: workloads._lenet(0), lr=0.01, batch_size=16)

    def test_accepts_the_cloud_round_trips(self) -> None:
        self.replay(self.extracted)

    def test_rejects_untrained_weights(self) -> None:
        with self.assertRaises(checks.CheckFailed):
            self.replay([checks.state_digest(self.initial), self.extracted[1]])

    def test_rejects_a_skipped_round(self) -> None:
        with self.assertRaises(checks.CheckFailed):
            self.replay([self.extracted[1]])

    def test_rejects_another_batch_order(self) -> None:
        model = workloads._lenet(0)
        model.load_state_dict(self.initial)
        loader = DataLoader(self.data.train, 16, shuffle=True, rng=np.random.default_rng(99))
        ClassificationTrainer(model, lr=0.01).fit(loader, epochs=1)
        with self.assertRaises(checks.CheckFailed):
            self.replay([checks.state_digest(model.state_dict())])

    def test_rejects_a_one_ulp_change(self) -> None:
        model = workloads._lenet(0)
        model.load_state_dict(self.initial)
        ClassificationTrainer(model, lr=0.01).fit(
            DataLoader(self.data.train, 16, shuffle=True, rng=get_rng(None)), epochs=1)
        state = model.state_dict()
        name = sorted(state)[0]
        state[name] = np.nextafter(state[name], np.inf)
        with self.assertRaises(checks.CheckFailed):
            self.replay([checks.state_digest(state)])


class FailureCount(unittest.TestCase):
    def test_a_failing_call_is_counted_and_the_run_goes_on(self) -> None:
        workload = workloads.OfflineBatch(7)
        workload.setup()

        def refuse(*args, **kwargs):
            raise RuntimeError("refused")

        workload.proxies["lenet"].predict_batch = refuse
        timed = workload.run(0.2)
        self.assertGreater(timed.ops, 0)
        self.assertEqual(timed.failed, timed.ops // 2)
        self.assertEqual(timed.samples, (timed.ops - timed.failed) * workloads.OFFLINE_BATCH)
        self.assertEqual(timed.first_failure, "RuntimeError: refused")


if __name__ == "__main__":
    unittest.main()
