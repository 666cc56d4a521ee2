"""Trainable parameter storage, Adam updates, and gradient checking.

All tensors are float64. Parameters are split into two partitions, GEN
(generator weights) and MAIN (everything else), and an Adam step touches
exactly one partition, leaving the other bit-identical.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import signal
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, TypeVar

import numpy as np

GEN = "GEN"
MAIN = "MAIN"
PARTITIONS = (GEN, MAIN)

T = TypeVar("T")
U = TypeVar("U")

# version entry of the `.npz` files `ParameterStore.save` writes
CHECKPOINT_FORMAT = 1


class ConfigError(ValueError):
    """A config value no run can use. The config dataclasses raise it when
    built, so an invalid config object never exists; the command line
    exits 2 on it."""


def is_int_list(value) -> bool:
    """A non-empty list or tuple of ints (bools excluded)."""
    return (
        isinstance(value, (list, tuple))
        and len(value) > 0
        and all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in value)
    )


# Adam's moment decay rates and denominator offset, the same for every run
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class AdamConfig:
    lr: float = 0.001
    weight_decay: float = 1e-4

    def __post_init__(self):
        # written so that NaN fails every comparison and is rejected
        if not 0 < self.lr < np.inf:
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        if not 0 <= self.weight_decay < np.inf:
            raise ConfigError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")


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


# evaluate, knn_generate and the virtual-row refresh work through their
# rows in blocks of `block_rows(n_columns)`, so a block's score or
# attention matrix and its work arrays stay near this many cells
_BLOCK_CELL_BUDGET = 1 << 20


def block_rows(n_columns: int) -> int:
    """Rows per block of a row-by-row pass over `n_columns` columns."""
    return max(1, _BLOCK_CELL_BUDGET // n_columns)


# run_pair runs its two tasks inline below this many cells of work: on
# small arrays the hand-off of the GIL costs more than the second CPU gains
_THREAD_CELL_MIN = 1 << 17

_worker: ThreadPoolExecutor | None = None


def _fresh_worker():
    # a forked child inherits the executor but not its thread, so its
    # queue would never drain; the child starts a worker of its own
    global _worker
    _worker = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_fresh_worker)


def pair_threads() -> int:
    """2 when `run_pair` may use its worker thread, 1 when the process can
    run on only one CPU and every pair runs inline."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return 2 if cpus > 1 else 1


def run_pair(f: Callable[[], None], g: Callable[[], None], cells: int) -> None:
    """Run `f` on the calling thread and `g` on one shared worker thread
    side by side, or both inline (f first) when `cells` is below
    `_THREAD_CELL_MIN` or only one CPU is usable. numpy releases the GIL in
    ufuncs and matmul, so two tasks of large array work overlap.

    Threaded, returns only after both have finished, also when one raises:
    `f`'s exception wins, else `g`'s propagates. Inline, an exception in
    `f` propagates before `g` runs. The tasks must write to
    disjoint, caller-allocated arrays, so their results do not depend on
    whether they ran in parallel.
    """
    global _worker
    if cells < _THREAD_CELL_MIN or pair_threads() == 1:
        f()
        g()
        return
    if _worker is None:
        _worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="vuglab-pair")
    future = _worker.submit(g)
    try:
        f()
    finally:
        future.exception()  # waits for g
    future.result()


# fork_pair runs its two tasks inline below this many bytes of input: a
# fork, the pipe and the pickled result cost more than the second CPU saves
_FORK_BYTES_MIN = 1 << 20

# macOS system libraries are not fork-safe without an exec; Windows has no fork
_CAN_FORK = hasattr(os, "fork") and sys.platform != "darwin"


class _ChildTraceback(Exception):
    """The traceback text of an exception raised in `fork_pair`'s child,
    set as the re-raised exception's cause so that it prints with it."""


def _run_child(f: Callable[[], T], fd: int):
    """In the forked child: run `f`, send (ok, result or exception,
    traceback text) pickled down `fd`, and exit 0 once it is sent, without
    running the parent's exit handlers or flushing its copied buffers."""
    code = 1
    try:
        try:
            out = (True, f(), "")
        except BaseException as exc:
            out = (False, exc, traceback.format_exc())
        try:
            data = pickle.dumps(out, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            data = pickle.dumps((False, RuntimeError(f"cannot send the result: {exc!r}"), out[2]))
        with os.fdopen(fd, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


def fork_pair(f: Callable[[], T], g: Callable[[], U], nbytes: int) -> tuple[T, U]:
    """`(f(), g())`, with `f` run in a forked child while `g` runs in the
    calling process, or both inline (f first) when `nbytes` is below
    `_FORK_BYTES_MIN`, only one CPU is usable, the platform cannot fork
    safely or the fork fails. `f`'s result comes back pickled through a
    pipe, so `f` must only return and raise: what it changes in its own
    memory stays in the child.

    The child is reaped before this returns or raises. `f`'s exception wins,
    else `g`'s propagates, as inline. A re-raised child exception keeps its
    type and message and has the child's traceback as its cause; a child
    that exits without a result is a RuntimeError naming its exit status.
    """
    if nbytes < _FORK_BYTES_MIN or pair_threads() == 1 or not _CAN_FORK:
        return f(), g()
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process or memory to spare: run inline
        os.close(read_fd)
        os.close(write_fd)
        return f(), g()
    if pid == 0:
        os.close(read_fd)
        _run_child(f, write_fd)
    os.close(write_fd)
    data = None
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            try:
                g_out, g_exc = g(), None
            except Exception as exc:
                g_out, g_exc = None, exc
            data = pipe.read()
    finally:
        if data is None:  # interrupted: the child's outcome is not wanted
            os.kill(pid, signal.SIGKILL)
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status or not data:
        raise RuntimeError(f"the forked child exited with status {status} before sending its result")
    ok, f_out, tb = pickle.loads(data)
    if not ok:
        f_out.__cause__ = _ChildTraceback(tb)
        raise f_out
    if g_exc is not None:
        raise g_exc
    return f_out, g_out


def init_embeddings(n: int, d: int, seed: int) -> np.ndarray:
    """Embedding table of shape (n, d), entries i.i.d. normal(0, 0.01^2)."""
    if n < 1 or d < 1:
        raise ValueError(f"embedding table needs n, d >= 1, got ({n}, {d})")
    x = np.random.default_rng(seed).standard_normal((n, d))
    x *= 0.01  # in place: the bits of 0.01 * x, without a second table
    return x


def _describe(arr: np.ndarray | None) -> str:
    return "nothing" if arr is None else f"{arr.dtype} {arr.shape}"


class ParameterStore:
    """Named float64 tensors with a partition label and Adam state each.

    The Adam step counter is kept per partition, so alternating updates of
    GEN and MAIN each see their own bias-correction schedule. Snapshots,
    checksums and `.npz` checkpoints all hold one flat state mapping (see
    `_state`).
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
        # np.zeros leaves the pages to the operating system, which commits
        # them zeroed on the first write, so a store that is only evaluated
        # holds no Adam memory; Adam's moments start at zero either way
        self._m[name] = np.zeros(arr.shape)
        self._v[name] = np.zeros(arr.shape)
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

    def adam_step(self, grads: dict[str, np.ndarray], cfg: AdamConfig, partition: str):
        """Bias-corrected Adam update of one partition, with decoupled weight
        decay applied alongside. `grads` must cover the partition exactly,
        with each tensor's shape; otherwise nothing is written. The tensors
        at even and odd positions of `names(partition)` are updated side by
        side (`run_pair`), in place with one scratch buffer per half.
        """
        names = self.names(partition)
        missing = sorted(set(names) - set(grads))
        extra = sorted(set(grads) - set(names))
        if missing or extra:
            raise ValueError(
                f"grads must cover partition {partition} exactly; "
                f"missing={missing} extra={extra}"
            )
        tensors = []
        for name in names:
            g = np.asarray(grads[name], dtype=np.float64)
            theta = self._tensors[name]
            if g.shape != theta.shape:
                raise ValueError(
                    f"gradient shape {g.shape} does not match tensor "
                    f"{name!r} of shape {theta.shape}"
                )
            tensors.append((theta, self._m[name], self._v[name], g))
        self.step_count[partition] += 1
        t = self.step_count[partition]
        b1, b2, lr, eps = _BETA1, _BETA2, cfg.lr, _EPS
        c1, c2, lr_wd = 1.0 - b1, 1.0 - b2, lr * cfg.weight_decay
        bc1 = 1.0 - b1**t
        bc2 = 1.0 - b2**t
        halves = (tensors[0::2], tensors[1::2])
        widths = [max((theta.size for theta, *_ in half), default=0) for half in halves]
        scratch = np.empty(2 * sum(widths))

        def update(half, lo):
            # theta -= lr * (m / bc1) / (sqrt(v / bc2) + eps), then the decay,
            # one operation at a time in the order that rounds as it always has
            for theta, m, v, g in half:
                n = theta.size
                a = scratch[lo : lo + n].reshape(theta.shape)
                b = scratch[lo + n : lo + 2 * n].reshape(theta.shape)
                m *= b1
                np.multiply(c1, g, out=a)
                m += a
                v *= b2
                np.multiply(c2, g, out=a)
                a *= g
                v += a
                np.divide(m, bc1, out=a)
                np.divide(v, bc2, out=b)
                np.sqrt(b, out=b)
                b += eps
                a *= lr
                a /= b
                theta -= a
                if cfg.weight_decay:
                    np.multiply(lr_wd, theta, out=a)
                    theta -= a

        run_pair(
            lambda: update(halves[0], 0),
            lambda: update(halves[1], 2 * widths[0]),
            cells=sum(theta.size for theta, *_ in tensors),
        )

    # -- state inspection / persistence ---------------------------------

    def _state(self, partitions: Iterable[str] = PARTITIONS) -> dict[str, np.ndarray]:
        """The live arrays of `partitions`, keyed "<partition>/<value|m|v>/<name>",
        plus each partition's step counter as a 0-d int64 under "steps/<partition>".
        """
        state = {}
        for name, value in self._tensors.items():
            p = self._partition[name]
            if p in partitions:
                state[f"{p}/value/{name}"] = value
                state[f"{p}/m/{name}"] = self._m[name]
                state[f"{p}/v/{name}"] = self._v[name]
        for p in partitions:
            state[f"steps/{p}"] = np.array(self.step_count[p], dtype=np.int64)
        return state

    def checksum(self, partition: str) -> str:
        """SHA-256 over the sorted state keys and bytes of one partition:
        tensors, Adam moments and step counter.
        """
        h = hashlib.sha256()
        for key, arr in sorted(self._state((partition,)).items()):
            h.update(key.encode())
            h.update(arr.tobytes())
        return h.hexdigest()

    def snapshot(self) -> dict[str, np.ndarray]:
        """Copy of the whole state mapping, for best-checkpoint tracking."""
        return {key: arr.copy() for key, arr in self._state().items()}

    def restore(self, snap: dict[str, np.ndarray]):
        """Write a snapshot back in place. Its keys, shapes and dtypes must be
        exactly this store's; otherwise nothing is written and the error
        names the first key that differs.
        """
        state = self._state()
        for key in sorted(set(state) | set(snap)):
            got, want = _describe(snap.get(key)), _describe(state.get(key))
            if got != want:
                raise ValueError(
                    f"state does not match this store: {key!r} holds {got}, expected {want}"
                )
        for key, arr in state.items():
            if key.startswith("steps/"):
                self.step_count[key.split("/")[1]] = int(snap[key])
            else:
                arr[...] = snap[key]

    def save(self, path: str):
        """`np.savez` of the snapshot plus a format-version entry, written to
        exactly `path` whatever its suffix.
        """
        with open(path, "wb") as fh:
            np.savez(fh, format=np.array(CHECKPOINT_FORMAT), **self._state())

    def load(self, path: str):
        """Restore a checkpoint written by `save` into this store, in place."""
        with open(path, "rb") as fh:
            try:
                with np.load(fh, allow_pickle=False) as npz:
                    snap = {key: npz[key] for key in npz.files}
            except Exception as exc:  # a damaged zip raises any of half a dozen types
                raise ValueError(f"not a vuglab .npz checkpoint: {path}") from exc
        version = snap.pop("format", None)
        if version is None or version.tolist() != CHECKPOINT_FORMAT:
            raise ValueError(
                f"checkpoint {path} has format {version}, expected {CHECKPOINT_FORMAT}"
            )
        self.restore(snap)


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
