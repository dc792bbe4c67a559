"""Correctness checks, each against a computation made apart from the program.

* Training: the extracted LeNet must equal, bit for bit, a plain LeNet
  trained from the same initial weights on the raw data, in the same batch
  order, round for round (the paper's training-equivalence property).
* Serving: every row returned must equal the extracted original model's own
  forward on the raw sample.  The offline path runs the reference on the very
  same 32-sample batch, so its rows must match bit for bit; the gateway
  coalesces requests into batches of varying size, so its rows are compared
  within float32 rounding.
* Gateway accounting: the client ledger, the gateway's response counter and
  the router's ``completed`` counter must all equal the requests sent.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List

import numpy as np

#: Float32 logits of one sample computed inside batches of different sizes.
ROW_RTOL = 1e-4
ROW_ATOL = 1e-5


class CheckFailed(AssertionError):
    """An output of the program did not match its independent reference."""


def reference_forward(model, images: np.ndarray) -> np.ndarray:
    """The plain model's forward on raw images, as one batch."""
    from repro import nn

    with nn.no_grad():
        return np.asarray(model(nn.Tensor(np.asarray(images))).data)


def rows_match(rows: np.ndarray, expected: np.ndarray, what: str) -> None:
    if rows.shape != expected.shape or not np.array_equal(rows, expected):
        raise CheckFailed(f"{what}: served rows differ from the reference forward "
                          f"(max |diff| {_max_diff(rows, expected)})")


def rows_close(rows: np.ndarray, expected: np.ndarray, what: str) -> None:
    if rows.shape != expected.shape or not np.allclose(rows, expected, rtol=ROW_RTOL,
                                                       atol=ROW_ATOL):
        raise CheckFailed(f"{what}: served rows differ from the reference forward "
                          f"(max |diff| {_max_diff(rows, expected)})")


def _max_diff(rows: np.ndarray, expected: np.ndarray) -> str:
    if rows.shape != expected.shape:
        return f"n/a: shape {rows.shape} != {expected.shape}"
    return f"{float(np.max(np.abs(rows - expected))):.3g}"


def ledgers_agree(ledger: Dict[str, int]) -> None:
    """Every request sent was answered once, and every layer counted it once."""
    sent = ledger["sent"]
    counted = {key: ledger[key] for key in
               ("client_succeeded", "gateway_responses", "router_completed")}
    if ledger["client_failed"] or ledger["client_pending"] or any(
            value != sent for value in counted.values()):
        raise CheckFailed(f"request accounting disagrees: {ledger}")


def state_digest(state: Dict[str, np.ndarray]) -> bytes:
    """A digest of a state dict's names, shapes, dtypes and exact values."""
    digest = hashlib.sha256()
    for name in sorted(state):
        value = np.ascontiguousarray(state[name])
        digest.update(f"{name}:{value.dtype}:{value.shape};".encode())
        digest.update(value.tobytes())
    return digest.digest()


def training_equivalence(initial_state: Dict[str, np.ndarray], raw_train,
                         extracted: List[bytes], factory: Callable, lr: float,
                         batch_size: int) -> None:
    """Replay every round trip on a plain model and compare state digests.

    ``extracted`` holds :func:`state_digest` of the model extracted after each
    round trip.  ``CloudEnvironment`` shuffles each job with ``get_rng(None)``
    and builds a fresh momentum-SGD optimizer per job, so the plain replay
    does the same per round.
    """
    from repro.core import ClassificationTrainer
    from repro.data import DataLoader
    from repro.utils.rng import get_rng

    model = factory()
    model.load_state_dict(initial_state)
    for round_index, digest in enumerate(extracted):
        loader = DataLoader(raw_train, batch_size, shuffle=True, rng=get_rng(None))
        ClassificationTrainer(model, lr=lr).fit(loader, epochs=1)
        plain = model.state_dict()
        if not all(np.all(np.isfinite(value)) for value in plain.values()):
            raise CheckFailed(f"round {round_index}: plain training diverged")
        if state_digest(plain) != digest:
            raise CheckFailed(f"round {round_index}: the extracted model differs from "
                              "plain training on the raw data")
