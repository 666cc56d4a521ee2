"""Trainable parameter storage, Adam updates, and gradient checking.

All tensors are float64. Parameters are split into two partitions, GEN
(generator weights) and MAIN (everything else), and an Adam step touches
exactly one partition, leaving the other bit-identical.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

GEN = "GEN"
MAIN = "MAIN"
PARTITIONS = (GEN, MAIN)


@dataclass
class AdamConfig:
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 1e-4

    def validate(self):
        # written so that NaN fails every comparison and is rejected
        if not 0 < self.lr < np.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("betas must lie in [0, 1)")
        if not 0 < self.eps < np.inf:
            raise ValueError(f"eps must be positive and finite, got {self.eps}")
        if not 0 <= self.weight_decay < np.inf:
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")


# scatter_add adds max(1, this // d) rows per 1-d np.add.at call, so its
# flat cell index stays near this many entries
_SCATTER_CELL_BUDGET = 1 << 16


def scatter_add(out: np.ndarray, index: np.ndarray, rows: np.ndarray) -> None:
    """`np.add.at(out, index, rows)` for a C-contiguous 2-d `out`: each
    rows[b] is added into out[index[b]] in ascending b, so every cell sums
    the same terms in the same order and ends bitwise equal. The work runs
    as 1-d `np.add.at` calls on flat `index * d + column` cell indices, a
    block of rows at a time.
    """
    if out.ndim != 2 or not out.flags.c_contiguous:
        raise ValueError("scatter_add needs a C-contiguous 2-d output array")
    d = out.shape[1]
    flat = out.reshape(-1)
    index = np.asarray(index, dtype=np.int64)
    rows = np.asarray(rows, dtype=out.dtype)
    if rows.shape != (len(index), d):
        raise ValueError(
            f"rows of shape {rows.shape} do not match {len(index)} indices of width {d}"
        )
    cols = np.arange(d)
    block = max(1, _SCATTER_CELL_BUDGET // d)
    for b0 in range(0, len(index), block):
        cells = index[b0 : b0 + block, None] * d + cols
        np.add.at(flat, cells.reshape(-1), rows[b0 : b0 + block].reshape(-1))


def init_embeddings(n: int, d: int, seed: int) -> np.ndarray:
    """Embedding table of shape (n, d), entries i.i.d. normal(0, 0.01^2)."""
    if n < 1 or d < 1:
        raise ValueError(f"embedding table needs n, d >= 1, got ({n}, {d})")
    rng = np.random.default_rng(seed)
    return 0.01 * rng.standard_normal((n, d))


class ParameterStore:
    """Named float64 tensors with a partition label and Adam state each.

    The Adam step counter is kept per partition, so alternating updates of
    GEN and MAIN each see their own bias-correction schedule.
    """

    def __init__(self):
        self._tensors: dict[str, np.ndarray] = {}
        self._partition: dict[str, str] = {}
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self.step_count: dict[str, int] = {p: 0 for p in PARTITIONS}

    def add(self, name: str, value: np.ndarray, partition: str) -> np.ndarray:
        if partition not in PARTITIONS:
            raise ValueError(f"unknown partition {partition!r}")
        if name in self._tensors:
            raise ValueError(f"tensor {name!r} already registered")
        arr = np.asarray(value, dtype=np.float64).copy()
        self._tensors[name] = arr
        self._partition[name] = partition
        self._m[name] = np.zeros_like(arr)
        self._v[name] = np.zeros_like(arr)
        return arr

    def get(self, name: str) -> np.ndarray:
        return self._tensors[name]

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def partition_of(self, name: str) -> str:
        return self._partition[name]

    def names(self, partition: str | None = None) -> list[str]:
        if partition is None:
            return list(self._tensors)
        return [n for n, p in self._partition.items() if p == partition]

    def zero_grads(self, partition: str) -> dict[str, np.ndarray]:
        """Zero-filled gradient dict covering exactly one partition."""
        return {n: np.zeros_like(self._tensors[n]) for n in self.names(partition)}

    def adam_step(self, grads: dict[str, np.ndarray], cfg: AdamConfig, partition: str):
        """Bias-corrected Adam update of one partition, with decoupled weight
        decay applied alongside. `grads` must cover the partition exactly.
        """
        expected = set(self.names(partition))
        got = set(grads)
        if got != expected:
            missing = sorted(expected - got)
            extra = sorted(got - expected)
            raise ValueError(
                f"grads must cover partition {partition} exactly; "
                f"missing={missing} extra={extra}"
            )
        self.step_count[partition] += 1
        t = self.step_count[partition]
        bc1 = 1.0 - cfg.beta1**t
        bc2 = 1.0 - cfg.beta2**t
        for name in self.names(partition):
            g = np.asarray(grads[name], dtype=np.float64)
            theta = self._tensors[name]
            if g.shape != theta.shape:
                raise ValueError(
                    f"gradient shape {g.shape} does not match tensor "
                    f"{name!r} of shape {theta.shape}"
                )
            m = self._m[name]
            v = self._v[name]
            m *= cfg.beta1
            m += (1.0 - cfg.beta1) * g
            v *= cfg.beta2
            v += (1.0 - cfg.beta2) * g * g
            m_hat = m / bc1
            v_hat = v / bc2
            theta -= cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.eps)
            if cfg.weight_decay:
                theta -= cfg.lr * cfg.weight_decay * theta

    # -- state inspection / persistence ---------------------------------

    def checksum(self, partition: str) -> str:
        """SHA-256 over tensors, Adam moments, and step counter of a partition."""
        h = hashlib.sha256()
        h.update(str(self.step_count[partition]).encode())
        for name in sorted(self.names(partition)):
            h.update(name.encode())
            h.update(self._tensors[name].tobytes())
            h.update(self._m[name].tobytes())
            h.update(self._v[name].tobytes())
        return h.hexdigest()

    def snapshot(self) -> dict:
        """Deep copy of all state, for best-checkpoint tracking."""
        return {
            "tensors": {n: a.copy() for n, a in self._tensors.items()},
            "m": {n: a.copy() for n, a in self._m.items()},
            "v": {n: a.copy() for n, a in self._v.items()},
            "steps": dict(self.step_count),
        }

    def restore(self, snap: dict):
        for n, a in snap["tensors"].items():
            self._tensors[n][...] = a
        for n, a in snap["m"].items():
            self._m[n][...] = a
        for n, a in snap["v"].items():
            self._v[n][...] = a
        self.step_count.update(snap["steps"])

    def save(self, path: str):
        """Checkpoint as JSON: name -> shape -> row-major values, plus Adam
        state and step counters. Python float repr round-trips doubles
        bit-exactly, so load(save(x)) == x bitwise.
        """
        blob = {
            "tensors": {
                n: {
                    "shape": list(a.shape),
                    "partition": self._partition[n],
                    "data": a.ravel().tolist(),
                    "m": self._m[n].ravel().tolist(),
                    "v": self._v[n].ravel().tolist(),
                }
                for n, a in self._tensors.items()
            },
            "steps": dict(self.step_count),
        }
        with open(path, "w") as fh:
            json.dump(blob, fh)

    @classmethod
    def load(cls, path: str) -> "ParameterStore":
        with open(path) as fh:
            blob = json.load(fh)
        store = cls()
        for name, spec in blob["tensors"].items():
            shape = tuple(spec["shape"])
            arr = np.asarray(spec["data"], dtype=np.float64).reshape(shape)
            store.add(name, arr, spec["partition"])
            store._m[name][...] = np.asarray(spec["m"], dtype=np.float64).reshape(shape)
            store._v[name][...] = np.asarray(spec["v"], dtype=np.float64).reshape(shape)
        store.step_count.update(blob["steps"])
        return store


def finite_diff_check(
    loss_fn: Callable[[], float],
    store: ParameterStore,
    analytic: dict[str, np.ndarray],
    names: Iterable[str] | None = None,
    h: float = 1e-5,
    n_probe: int = 50,
    seed: int = 0,
) -> float:
    """Compare analytic gradients to central differences at random coordinates.

    `loss_fn` must be deterministic for fixed parameters (fixed batch). For
    each probed coordinate theta_i the relative error is
    |a - fd| / max(1, |a|, |fd|); the max over probes is returned.
    """
    if names is None:
        names = sorted(analytic)
    names = list(names)
    rng = np.random.default_rng(seed)
    coords = []
    for _ in range(n_probe):
        name = names[rng.integers(len(names))]
        flat = store.get(name).ravel()
        coords.append((name, int(rng.integers(flat.size))))
    worst = 0.0
    for name, idx in coords:
        flat = store.get(name).ravel()
        orig = flat[idx]
        flat[idx] = orig + h
        lp = loss_fn()
        flat[idx] = orig - h
        lm = loss_fn()
        flat[idx] = orig
        if not (np.isfinite(lp) and np.isfinite(lm)):
            raise ValueError(f"non-finite loss while probing {name}[{idx}]")
        fd = (lp - lm) / (2.0 * h)
        a = analytic[name].ravel()[idx]
        err = abs(a - fd) / max(1.0, abs(a), abs(fd))
        worst = max(worst, err)
    return worst
