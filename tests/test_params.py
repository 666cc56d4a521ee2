"""Parameter store, Adam, and gradient-checker tests.

Hand-derived oracles: after one Adam step with gradient g the bias
corrections cancel to m_hat = g, v_hat = g^2, so the update is exactly
lr * g / (|g| + eps) regardless of g's magnitude.
"""

import os
import threading
import time
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vuglab import params
from vuglab.params import (
    GEN,
    MAIN,
    AdamConfig,
    ConfigError,
    ParameterStore,
    finite_diff_check,
    init_embeddings,
    scatter_add,
)


def test_adam_config_rejects_bad_values():
    """Each bad value fails at construction, as a ConfigError naming it."""
    for kw, match in (
        ({"lr": 0.0}, "lr must be positive"),
        ({"lr": -1.0}, "lr must be positive"),
        ({"lr": float("nan")}, "lr must be positive"),
        ({"beta1": 1.0}, "betas"),
        ({"beta2": -0.1}, "betas"),
        ({"eps": float("inf")}, "eps"),
        ({"weight_decay": -1e-4}, "weight_decay"),
    ):
        with pytest.raises(ConfigError, match=match):
            AdamConfig(**kw)
    AdamConfig()


def test_init_embeddings_shape_scale_and_determinism():
    e1 = init_embeddings(500, 16, seed=7)
    e2 = init_embeddings(500, 16, seed=7)
    assert e1.shape == (500, 16)
    assert np.array_equal(e1, e2)
    # i.i.d. normal(0, 0.01^2); std of 8000 draws concentrates tightly
    assert abs(e1.std() - 0.01) < 0.002
    assert not np.array_equal(e1, init_embeddings(500, 16, seed=8))
    with pytest.raises(ValueError):
        init_embeddings(0, 4, seed=0)


class TestStoreBasics:
    def test_add_get_partition(self):
        store = ParameterStore()
        arr = store.add("w", np.ones((2, 3)), MAIN)
        assert store.get("w") is arr
        assert store.partition_of("w") == MAIN
        assert "w" in store and "nope" not in store
        assert store.names() == ["w"]
        assert store.names(GEN) == []

    def test_duplicate_and_bad_partition_rejected(self):
        store = ParameterStore()
        store.add("w", np.zeros(2), MAIN)
        with pytest.raises(ValueError):
            store.add("w", np.zeros(2), MAIN)
        with pytest.raises(ValueError):
            store.add("x", np.zeros(2), "OTHER")

    def test_add_copies_input(self):
        store = ParameterStore()
        src = np.zeros(3)
        store.add("w", src, MAIN)
        src[0] = 99.0
        assert store.get("w")[0] == 0.0


class TestAdamStep:
    def test_first_step_oracle(self):
        # theta=1, g=0.5, lr=0.1: update = 0.1 * 0.5/(0.5 + 1e-8)
        store = ParameterStore()
        store.add("w", np.array([1.0]), MAIN)
        cfg = AdamConfig(lr=0.1, weight_decay=0.0)
        store.adam_step({"w": np.array([0.5])}, cfg, MAIN)
        assert store.get("w")[0] == pytest.approx(0.900000002, abs=1e-15)

    def test_first_step_with_decoupled_decay(self):
        # decay multiplies the post-update value by (1 - lr*wd)
        store = ParameterStore()
        store.add("w", np.array([1.0]), MAIN)
        cfg = AdamConfig(lr=0.1, weight_decay=0.01)
        store.adam_step({"w": np.array([0.5])}, cfg, MAIN)
        assert store.get("w")[0] == pytest.approx(0.899100001998, abs=1e-15)

    def test_second_step_oracle(self):
        store = ParameterStore()
        store.add("w", np.array([1.0]), MAIN)
        cfg = AdamConfig(lr=0.1, weight_decay=0.0)
        g = {"w": np.array([0.5])}
        store.adam_step(g, cfg, MAIN)
        store.adam_step({"w": np.array([0.5])}, cfg, MAIN)
        assert store.get("w")[0] == pytest.approx(0.8000000040000006, abs=1e-14)

    def test_step_counters_are_per_partition(self):
        store = ParameterStore()
        store.add("a", np.zeros(1), MAIN)
        store.add("g", np.zeros(1), GEN)
        cfg = AdamConfig(lr=0.1)
        store.adam_step({"a": np.ones(1)}, cfg, MAIN)
        store.adam_step({"a": np.ones(1)}, cfg, MAIN)
        store.adam_step({"g": np.ones(1)}, cfg, GEN)
        assert store.step_count == {MAIN: 2, GEN: 1}

    def test_partition_freeze_is_bit_exact(self):
        store = ParameterStore()
        rng = np.random.default_rng(0)
        store.add("a", rng.standard_normal((4, 3)), MAIN)
        store.add("g", rng.standard_normal((2, 2)), GEN)
        before = store.checksum(GEN)
        frozen = store.get("g").copy()
        store.adam_step({"a": rng.standard_normal((4, 3))}, AdamConfig(lr=0.01), MAIN)
        assert store.checksum(GEN) == before
        assert np.array_equal(store.get("g"), frozen)

    def test_grads_must_cover_partition_exactly(self):
        store = ParameterStore()
        store.add("a", np.zeros(2), MAIN)
        store.add("b", np.zeros(2), MAIN)
        cfg = AdamConfig()
        with pytest.raises(ValueError, match="missing"):
            store.adam_step({"a": np.zeros(2)}, cfg, MAIN)
        with pytest.raises(ValueError, match="extra"):
            store.adam_step({"a": np.zeros(2), "b": np.zeros(2), "c": np.zeros(2)}, cfg, MAIN)

    def test_gradient_shape_mismatch_rejected(self):
        store = ParameterStore()
        store.add("a", np.zeros((2, 2)), MAIN)
        with pytest.raises(ValueError, match="shape"):
            store.adam_step({"a": np.zeros(3)}, AdamConfig(), MAIN)

    def test_failed_step_changes_nothing(self):
        # the second gradient's shape is wrong: neither the first tensor,
        # its moments nor the step counter may move before that is found
        store = ParameterStore()
        store.add("a", np.ones((3, 2)), MAIN)
        store.add("b", np.ones((4, 2)), MAIN)
        before = store.checksum(MAIN)
        grads = {"a": np.full((3, 2), 0.5), "b": np.zeros((2, 4))}
        with pytest.raises(ValueError, match="shape"):
            store.adam_step(grads, AdamConfig(lr=0.001), MAIN)
        assert store.checksum(MAIN) == before
        assert store.step_count[MAIN] == 0

    def test_threaded_halves_equal_inline_over_50_steps(self, both_paths):
        # the MAIN tables of a 2000-user, 500-item, d=64 model: far above the gate
        shapes = {"su": (2000, 64), "tu": (2000, 64), "si": (500, 64), "ti": (500, 64)}

        def run():
            rng = np.random.default_rng(8)
            store = ParameterStore()
            for name, shape in shapes.items():
                store.add(name, rng.standard_normal(shape), MAIN)
            cfg = AdamConfig(lr=0.003)
            for _ in range(50):
                grads = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
                store.adam_step(grads, cfg, MAIN)
            return store._state((MAIN,))

        threaded, inline = both_paths(run)
        assert threaded.keys() == inline.keys()
        for key in threaded:
            assert threaded[key].tobytes() == inline[key].tobytes(), key


class TestStatePersistence:
    @staticmethod
    def _registered(a_shape=(5, 2)):
        store = ParameterStore()
        store.add("a", np.zeros(a_shape), MAIN)
        store.add("g", np.zeros((3, 3)), GEN)
        return store

    def _populated(self):
        store = self._registered()
        rng = np.random.default_rng(3)
        store.get("a")[...] = rng.standard_normal((5, 2))
        store.get("g")[...] = rng.standard_normal((3, 3))
        cfg = AdamConfig(lr=0.05)
        store.adam_step({"a": rng.standard_normal((5, 2))}, cfg, MAIN)
        store.adam_step({"g": rng.standard_normal((3, 3))}, cfg, GEN)
        return store, cfg, rng

    def test_checksum_tracks_updates(self):
        store, cfg, rng = self._populated()
        c0 = store.checksum(MAIN)
        assert store.checksum(MAIN) == c0
        store.adam_step({"a": rng.standard_normal((5, 2))}, cfg, MAIN)
        assert store.checksum(MAIN) != c0

    def test_snapshot_is_the_state_mapping(self):
        store, _, _ = self._populated()
        snap = store.snapshot()
        assert sorted(snap) == [
            "GEN/m/g", "GEN/v/g", "GEN/value/g",
            "MAIN/m/a", "MAIN/v/a", "MAIN/value/a",
            "steps/GEN", "steps/MAIN",
        ]
        assert snap["steps/MAIN"].dtype == np.int64 and snap["steps/MAIN"].shape == ()
        assert int(snap["steps/MAIN"]) == 1
        assert np.array_equal(snap["MAIN/value/a"], store.get("a"))
        assert snap["MAIN/value/a"] is not store.get("a")

    def test_snapshot_restore_round_trip(self):
        store, cfg, rng = self._populated()
        snap = store.snapshot()
        cs = {p: store.checksum(p) for p in (MAIN, GEN)}
        store.adam_step({"a": rng.standard_normal((5, 2))}, cfg, MAIN)
        store.adam_step({"g": rng.standard_normal((3, 3))}, cfg, GEN)
        store.restore(snap)
        assert {p: store.checksum(p) for p in (MAIN, GEN)} == cs

    def test_restore_is_in_place(self):
        store, _, _ = self._populated()
        a = store.get("a")
        snap = store.snapshot()
        a[...] = 0.0
        store.restore(snap)
        assert store.get("a") is a and np.array_equal(a, snap["MAIN/value/a"])

    @pytest.mark.parametrize(
        "edit, key",
        [
            (lambda s: s.pop("GEN/v/g"), "GEN/v/g"),
            (lambda s: s.update({"MAIN/value/b": np.zeros(2)}), "MAIN/value/b"),
            (lambda s: s.update({"MAIN/m/a": np.zeros((4, 2))}), "MAIN/m/a"),
            (lambda s: s.update({"steps/GEN": np.zeros(1, dtype=np.int64)}), "steps/GEN"),
            (lambda s: s.update({"MAIN/v/a": np.zeros((5, 2), dtype=np.float32)}), "MAIN/v/a"),
        ],
        ids=["missing", "extra", "shape", "step-shape", "dtype"],
    )
    def test_restore_rejects_a_mismatch_and_names_the_key(self, edit, key):
        store, _, _ = self._populated()
        snap = store.snapshot()
        edit(snap)
        before = {p: store.checksum(p) for p in (MAIN, GEN)}
        with pytest.raises(ValueError, match=f"'{key}'"):
            store.restore(snap)
        assert {p: store.checksum(p) for p in (MAIN, GEN)} == before

    def test_save_load_round_trip_bitwise(self, tmp_path):
        store, _, _ = self._populated()
        path = str(tmp_path / "ckpt.json")
        store.save(path)
        loaded = self._registered()
        loaded.load(path)
        assert set(loaded.names()) == set(store.names())
        for p in (MAIN, GEN):
            assert loaded.checksum(p) == store.checksum(p)
        assert loaded.step_count == store.step_count

    def test_save_writes_exactly_the_path_as_a_zip(self, tmp_path):
        store, _, _ = self._populated()
        store.save(str(tmp_path / "x.json"))
        assert sorted(os.listdir(tmp_path)) == ["x.json"]
        assert zipfile.is_zipfile(tmp_path / "x.json")
        with np.load(tmp_path / "x.json", allow_pickle=False) as npz:
            assert set(npz.files) == set(store.snapshot()) | {"format"}
            assert npz["format"] == params.CHECKPOINT_FORMAT

    def test_load_rejects_a_mismatched_store(self, tmp_path):
        store, _, _ = self._populated()
        path = str(tmp_path / "ckpt.npz")
        store.save(path)
        other = self._registered(a_shape=(6, 2))
        expected = (
            r"does not match this store: 'MAIN/m/a' holds float64 \(5, 2\), "
            r"expected float64 \(6, 2\)"
        )
        with pytest.raises(ValueError, match=expected):
            other.load(path)

    @pytest.mark.parametrize(
        "content",
        [b'{"tensors": {}, "steps": {"GEN": 0, "MAIN": 0}}', b"", b"PK\x03\x04 truncated"],
        ids=["old-json", "empty", "bad-zip"],
    )
    def test_load_rejects_unreadable_files(self, tmp_path, content):
        path = tmp_path / "ckpt.npz"
        path.write_bytes(content)
        with pytest.raises(ValueError, match="not a vuglab .npz checkpoint"):
            self._registered().load(str(path))

    def test_load_rejects_a_truncated_checkpoint(self, tmp_path):
        store, _, _ = self._populated()
        path = tmp_path / "ckpt.npz"
        store.save(str(path))
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(ValueError, match="not a vuglab .npz checkpoint"):
            self._registered().load(str(path))

    @pytest.mark.parametrize("version", [None, 2, "1"])
    def test_load_rejects_another_format_version(self, tmp_path, version):
        store, _, _ = self._populated()
        extra = {} if version is None else {"format": np.array(version)}
        path = tmp_path / "ckpt.npz"
        with open(path, "wb") as fh:
            np.savez(fh, **store.snapshot(), **extra)
        with pytest.raises(ValueError, match="format"):
            self._registered().load(str(path))


class TestFiniteDiffCheck:
    def _quadratic_store(self):
        store = ParameterStore()
        rng = np.random.default_rng(11)
        store.add("w", rng.standard_normal((4, 5)), MAIN)
        a = rng.uniform(0.5, 2.0, size=(4, 5))
        return store, a

    def test_correct_gradient_passes(self):
        store, a = self._quadratic_store()

        def loss():
            w = store.get("w")
            return float(np.sum(a * w * w))

        analytic = {"w": 2.0 * a * store.get("w")}
        err = finite_diff_check(loss, store, analytic, n_probe=40, seed=1)
        assert err <= 1e-7

    def test_corrupted_gradient_is_caught(self):
        store, a = self._quadratic_store()

        def loss():
            w = store.get("w")
            return float(np.sum(a * w * w))

        analytic = {"w": 0.5 * (2.0 * a * store.get("w"))}
        err = finite_diff_check(loss, store, analytic, n_probe=40, seed=1)
        assert err > 1e-2

    def test_perturbation_is_undone(self):
        store, a = self._quadratic_store()
        before = store.get("w").copy()

        def loss():
            w = store.get("w")
            return float(np.sum(a * w * w))

        finite_diff_check(loss, store, {"w": 2.0 * a * store.get("w")}, n_probe=10, seed=2)
        assert np.array_equal(store.get("w"), before)

    def test_non_finite_loss_raises(self):
        store = ParameterStore()
        store.add("w", np.zeros(2), MAIN)

        def loss():
            return float("nan")

        with pytest.raises(ValueError, match="non-finite"):
            finite_diff_check(loss, store, {"w": np.zeros(2)}, n_probe=2, seed=0)


def _add_at(out, index, rows):
    ref = out.copy()
    np.add.at(ref, index, rows)
    return ref


class TestScatterAdd:
    """`scatter_add` must leave `out` byte for byte as `np.add.at` does."""

    def assert_same(self, out, index, rows):
        with np.errstate(over="ignore", invalid="ignore"):  # inf and nan sums compare too
            want = _add_at(out, index, rows)
            scatter_add(out, index, rows)
        assert out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", [1, 3, 8])
    @pytest.mark.parametrize("budget", ["one", "d", "7d+3", "default"])
    def test_block_edges(self, monkeypatch, d, budget):
        cells = {"one": 1, "d": d, "7d+3": 7 * d + 3, "default": params._SCATTER_CELL_BUDGET}
        monkeypatch.setattr(params, "_SCATTER_CELL_BUDGET", cells[budget])
        rng = np.random.default_rng(d)
        # 40 rows into 5: every cell sums about 8 terms across block edges
        index = rng.integers(0, 5, 40)
        self.assert_same(rng.standard_normal((5, d)), index, rng.standard_normal((40, d)))

    def test_repeated_indices_keep_their_order(self):
        # 1e16 - 1e16 + 1 is 1 but 1 + 1e16 - 1e16 is 0 (1e16 + 1 rounds to
        # 1e16), so any other summation order gives other values
        out = np.zeros((2, 2))
        rows = np.array([[1e16, 1.0], [-1e16, 1e16], [1.0, -1e16]])
        self.assert_same(out, np.array([1, 1, 1]), rows)
        assert out.tolist() == [[0.0, 0.0], [1.0, 0.0]]

    def test_empty_index_leaves_out_alone(self):
        out = np.arange(6.0).reshape(3, 2)
        self.assert_same(out, np.zeros(0, dtype=np.int64), np.zeros((0, 2)))
        assert out.tolist() == [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]

    def test_signed_zeros(self):
        out = np.full((3, 1), -0.0)
        rows = np.array([[-0.0], [0.0], [-0.0], [-0.0]])
        self.assert_same(out, np.array([0, 1, 2, 2]), rows)
        assert np.signbit(out[:, 0]).tolist() == [True, False, True]

    def test_rejects_what_it_cannot_write_in_place(self):
        with pytest.raises(ValueError, match="C-contiguous"):
            scatter_add(np.zeros((4, 3)).T, np.array([0]), np.zeros((1, 4)))
        with pytest.raises(ValueError, match="do not match"):
            scatter_add(np.zeros((4, 3)), np.array([0, 1]), np.zeros((1, 3)))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), n=st.integers(1, 6), d=st.integers(1, 5), budget=st.integers(1, 40))
    def test_property_equals_add_at(self, data, n, d, budget):
        m = data.draw(st.integers(0, 30))
        index = data.draw(hnp.arrays(np.int64, m, elements=st.integers(0, n - 1)))
        floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
        out = data.draw(hnp.arrays(np.float64, (n, d), elements=floats))
        rows = data.draw(hnp.arrays(np.float64, (m, d), elements=floats))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(params, "_SCATTER_CELL_BUDGET", budget)
            self.assert_same(out, index, rows)


class TestRunPair:
    def test_below_the_gate_both_run_inline_in_order(self, pair_worker):
        ran = []
        params.run_pair(
            lambda: ran.append(("f", threading.current_thread())),
            lambda: ran.append(("g", threading.current_thread())),
            cells=params._THREAD_CELL_MIN - 1,
        )
        assert ran == [("f", threading.main_thread()), ("g", threading.main_thread())]
        assert params._worker is None

    def test_one_usable_cpu_runs_inline(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert params.pair_threads() == 1
        threads = []
        record = lambda: threads.append(threading.current_thread())  # noqa: E731
        params.run_pair(record, record, cells=params._THREAD_CELL_MIN)
        assert threads == [threading.main_thread()] * 2

    def test_above_the_gate_g_runs_on_the_worker(self, pair_worker):
        threads = {}
        params.run_pair(
            lambda: threads.update(f=threading.current_thread()),
            lambda: threads.update(g=threading.current_thread()),
            cells=params._THREAD_CELL_MIN,
        )
        assert threads["f"] is threading.main_thread()
        assert threads["g"] is not threading.main_thread()

    def test_error_in_f_waits_for_g(self, pair_worker):
        done = []

        def slow():
            time.sleep(0.2)
            done.append("g")

        def fail():
            raise KeyError("f")

        with pytest.raises(KeyError, match="f"):
            params.run_pair(fail, slow, cells=params._THREAD_CELL_MIN)
        assert done == ["g"]

    def test_error_in_g_waits_for_f(self, pair_worker):
        done = []

        def slow():
            time.sleep(0.2)
            done.append("f")

        def fail():
            raise KeyError("g")

        with pytest.raises(KeyError, match="g"):
            params.run_pair(slow, fail, cells=params._THREAD_CELL_MIN)
        assert done == ["f"]
