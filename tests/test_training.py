"""Alternating-trainer tests: config gates, partition freezing, descent
behavior, checkpointing, and determinism.

The schedule invariants are cheap to probe directly: `_gen_step` touches
only GEN tensors and `train_step` with a long generator cadence touches
only MAIN, so partition checksums before/after expose any leak.
"""

import json

import numpy as np
import pytest

from vuglab.cli import SyntheticCdrSpec, prepare_splits, synth_cdr
from vuglab.model import (
    SOURCE,
    SRC_ITEM,
    SRC_USER,
    TARGET,
    TGT_ITEM,
    TGT_USER,
    CdrModel,
    TrainBatch,
)
from vuglab.params import GEN, MAIN, AdamConfig
from vuglab.training import (
    CDR,
    CDR_VUG,
    KNN_VUG,
    TARGET_ONLY,
    TrainConfig,
    Trainer,
    TrainingDiverged,
    TrainLog,
)

LN2 = 0.6931471805599453


def tiny_workload(seed=1, target_ratios=(0.5, 0.25, 0.25), n_users=40):
    spec = SyntheticCdrSpec(
        n_source_users=n_users,
        n_target_users=n_users,
        overlap_ratio=0.4,
        n_items_source=25,
        n_items_target=25,
        latent_dim=4,
        interactions_per_user=8,
        noise=0.5,
        seed=seed,
    )
    cross = synth_cdr(spec)
    split_src, split_tgt = prepare_splits(cross, seed=seed, target_ratios=target_ratios)
    return cross, split_src, split_tgt


def quick_cfg(**kw):
    base = dict(
        mode=CDR,
        epochs=2,
        batch_size=64,
        d=6,
        lam=0.5,
        adam_main=AdamConfig(lr=0.01),
        eval_every=0,
        seed=1,
    )
    base.update(kw)
    return TrainConfig(**base)


class TestTrainConfig:
    def test_defaults_validate(self):
        TrainConfig().validate()

    @pytest.mark.parametrize(
        "kw",
        [
            {"mode": "HYBRID"},
            {"epochs": -1},
            {"eval_every": -2},
            {"warmup_epochs": -1},
            {"batch_size": 0},
            {"d": 0},
            {"patience": 0},
            {"gen_every": 0},
            {"knn_neighbors": 0},
            {"gamma1": 1.2},
            {"gamma2": -0.1},
            {"lam": 2.0},
            {"constrain_sample": 1},
            {"eval_ks": (5, 20)},
            {"gamma2": 1.1},
            {"super_sample": -1},
        ],
    )
    def test_each_gate_rejects(self, kw):
        """Each bad value is rejected with a message that names its field."""
        with pytest.raises(ValueError, match=next(iter(kw))):
            TrainConfig(**kw).validate()


class TestTrainLog:
    def test_steps_must_increase(self):
        log = TrainLog()
        log.append_step({"step": 1, "l_cdr": 1.0})
        log.append_step({"step": 2, "l_cdr": 0.9})
        with pytest.raises(ValueError, match="strictly increasing"):
            log.append_step({"step": 2, "l_cdr": 0.8})

    def test_jsonl_round_trip(self, tmp_path):
        log = TrainLog()
        log.append_step({"step": 1, "l_cdr": 0.5})
        log.epochs.append({"epoch": 0, "seconds": 0.1, "gen_seconds": 0.0})
        log.evals.append({"epoch": 0, "val_ndcg10": 0.2})
        path = str(tmp_path / "log.jsonl")
        log.save_jsonl(path)
        rows = [json.loads(line) for line in open(path)]
        assert [r["kind"] for r in rows] == ["step", "epoch", "eval"]
        assert rows[0]["l_cdr"] == 0.5 and rows[2]["val_ndcg10"] == 0.2


class TestPartitionFreeze:
    def test_main_steps_never_touch_gen(self):
        cross, ss, st = tiny_workload()
        # cadence longer than the run: only MAIN updates happen
        tr = Trainer(cross, ss, st, quick_cfg(mode=CDR_VUG, gen_every=10_000, epochs=1))
        tr.refresh_virtuals()
        before = tr.store.checksum(GEN)
        for _ in range(5):
            bs = TrainBatch(SOURCE, [0, 1], [0, 1], [2, 3])
            bt = TrainBatch(TARGET, [0, 1], [0, 1], [2, 3])
            tr.train_step(bs, bt)
        assert tr.store.checksum(GEN) == before
        assert tr.store.checksum(MAIN) != tr.store.checksum(GEN)

    def test_gen_steps_never_touch_main(self):
        cross, ss, st = tiny_workload()
        tr = Trainer(cross, ss, st, quick_cfg(mode=CDR_VUG))
        tr.refresh_virtuals()
        before = tr.store.checksum(MAIN)
        for _ in range(5):
            tr._gen_step()
        assert tr.store.checksum(MAIN) == before


class TestDescent:
    def test_supervised_limiter_descends_monotonically(self):
        """gamma2 = 1 turns the generator update into plain supervised
        descent; from identity init on an O(1)-scale loss surface the first
        50 steps at small lr must never increase L_super."""
        cross, ss, st = tiny_workload()
        cfg = quick_cfg(
            mode=CDR_VUG,
            gamma2=1.0,
            adam_gen=AdamConfig(lr=1e-3, weight_decay=0.0),
            super_sample=0,  # full overlap set: a fixed batch
        )
        tr = Trainer(cross, ss, st, cfg)
        for name in (SRC_USER, TGT_USER, SRC_ITEM, TGT_ITEM):
            tr.store.get(name)[:] *= 100.0
        tr.refresh_virtuals()
        seq = [tr._gen_step()[0] for _ in range(50)]
        assert all(b <= a for a, b in zip(seq, seq[1:]))
        assert seq[-1] < seq[0]

    def test_cdr_loss_beats_random_init_within_20_epochs(self):
        """Random-init BPR sits at ln 2 per domain; within 20 epochs even the
        summed two-domain loss must fall below a single ln 2."""
        spec = SyntheticCdrSpec(
            n_source_users=50,
            n_target_users=50,
            overlap_ratio=0.3,
            n_items_source=30,
            n_items_target=30,
            latent_dim=4,
            interactions_per_user=10,
            noise=0.5,
            seed=0,
        )
        cross = synth_cdr(spec)
        ss, st = prepare_splits(cross, seed=0, target_ratios=(0.8, 0.1, 0.1))
        cfg = TrainConfig(
            mode=CDR, epochs=20, batch_size=64, d=8, lam=0.5,
            adam_main=AdamConfig(lr=0.01), eval_every=0, seed=0,
        )
        model, gen, log = Trainer(cross, ss, st, cfg).fit()
        assert gen is None
        first = log.steps[0]["l_cdr"]
        np.testing.assert_allclose(first, 2 * LN2, atol=0.02)
        per_epoch = len(log.steps) // 20
        final = np.mean([r["l_cdr"] for r in log.steps[-per_epoch:]])
        assert final < LN2


class TestVirtualPlumbing:
    def test_knn_mode_has_no_generator_but_full_coverage(self):
        cross, ss, st = tiny_workload()
        tr = Trainer(cross, ss, st, quick_cfg(mode=KNN_VUG, epochs=1))
        assert tr.gen is None
        assert tr.model.effective_lam == tr.cfg.lam  # KNN rows feed in at lam
        tr.refresh_virtuals()
        assert tr.profiles is None  # only the attention generator reads them
        assert tr.virtual.shape == (cross.target.n_users, tr.cfg.d)
        non = set(int(u) for u in cross.target_nonoverlap)
        assert set(np.flatnonzero(tr.virtual.any(axis=1)).tolist()) == non
        tr.fit()
        assert all(r["l_super"] is None for r in tr.log.steps)

    def test_warmup_gates_generator_work(self):
        cross, ss, st = tiny_workload()
        tr = Trainer(
            cross, ss, st, quick_cfg(mode=CDR_VUG, epochs=2, warmup_epochs=1, gen_every=1)
        )
        tr.fit()
        n_steps = len(tr.log.steps)
        warm = [r for r in tr.log.steps[: n_steps // 2] if r["l_super"] is None]
        active = [r for r in tr.log.steps[n_steps // 2 :] if r["l_super"] is not None]
        assert len(warm) == n_steps // 2
        assert len(active) == n_steps // 2

    def test_warmup_ignores_a_table_refreshed_before_fit(self):
        """`fit` starts with virtual rows off, so warmup holds on a trainer
        whose table was filled beforehand."""
        cross, ss, st = tiny_workload()
        tr = Trainer(
            cross, ss, st, quick_cfg(mode=CDR_VUG, epochs=1, warmup_epochs=1, gen_every=1)
        )
        tr.refresh_virtuals()
        tr.fit()
        assert tr.virtual is None
        assert all(r["l_super"] is None for r in tr.log.steps)

    @pytest.mark.parametrize("mode", [TARGET_ONLY, CDR])
    def test_modes_without_virtual_rows_keep_none(self, mode):
        cross, ss, st = tiny_workload()
        tr = Trainer(cross, ss, st, quick_cfg(mode=mode, eval_every=1))
        tr.refresh_virtuals()
        assert tr.virtual is None and tr.profiles is None
        tr.fit()
        assert tr.virtual is None
        assert len(tr.log.evals) == 2
        assert all(r["l_super"] is None for r in tr.log.steps)
        assert all(r["gen_seconds"] == 0.0 for r in tr.log.epochs)

    def test_target_only_equals_cdr_at_lambda_zero(self):
        """TARGET_ONLY builds its model at lam 0 whatever `cfg.lam` says:
        its target BPR sends nothing to the source user table, and its
        query rows are those of a lam-0 model on the same tables."""
        cross, ss, st = tiny_workload()
        tr = Trainer(cross, ss, st, quick_cfg(mode=TARGET_ONLY, lam=0.9))
        assert tr.model.effective_lam == 0.0
        tr.refresh_virtuals()
        assert tr.virtual is None
        users = np.arange(cross.target.n_users)
        bt = TrainBatch(TARGET, users, users % 5, users % 5 + 1)
        assert SRC_USER not in tr.model.bpr_loss(bt, tr.virtual)[1]
        cdr = CdrModel(tr.store, tr.cfg.d, 0.0, cross.src_of_tgt())
        assert np.array_equal(tr.model.query_rows(users, None)[0], cdr.query_rows(users, None)[0])

    def test_refresh_builds_a_new_array(self):
        """A refresh never writes into an array handed out before it, so a
        caller holding the old one (an evaluate being repeated) sees the
        rows it was given."""
        cross, ss, st = tiny_workload()
        tr = Trainer(cross, ss, st, quick_cfg(mode=CDR_VUG))
        tr.refresh_virtuals()
        old = tr.virtual
        kept = old.copy()
        tr.store.get(SRC_USER)[:] += 1.0
        tr.refresh_virtuals()
        assert tr.virtual is not old
        assert np.array_equal(old, kept)
        assert not np.array_equal(tr.virtual, kept)

    def test_detached_mode_never_accumulates(self):
        """Target BPR reads virtual rows as constants: a step that consumes
        them, with no generator step due, leaves GEN bitwise unchanged."""
        cross, ss, st = tiny_workload()
        tr = Trainer(cross, ss, st, quick_cfg(mode=CDR_VUG, gen_every=2))
        tr.refresh_virtuals()
        non = cross.target_nonoverlap[:3]
        assert tr.virtual[non].any(axis=1).all()
        before = tr.store.checksum(GEN)
        tr.train_step(
            TrainBatch(SOURCE, [0, 1], [0, 1], [2, 3]), TrainBatch(TARGET, non, [0, 1, 2], [3, 4, 5])
        )
        assert tr.log.steps[-1]["l_super"] is None
        assert tr.store.checksum(GEN) == before


class TestScatterOrder:
    """The trainer's row scatters go through `params.scatter_add`; one step
    must leave both partitions bitwise where `np.add.at` leaves them."""

    @staticmethod
    def _one_step(mode):
        cross, ss, st = tiny_workload()
        tr = Trainer(cross, ss, st, quick_cfg(mode=mode))
        tr.refresh_virtuals()
        rng = np.random.default_rng(3)
        bs = TrainBatch(SOURCE, *next(tr.pool_src.iter_batches(64, rng)))
        bt = TrainBatch(TARGET, *next(tr.pool_tgt.iter_batches(64, rng)))
        tr.train_step(bs, bt)
        return tr.store.checksum(MAIN), tr.store.checksum(GEN)

    @pytest.mark.parametrize("mode", [CDR_VUG, KNN_VUG])
    def test_train_step_matches_add_at(self, monkeypatch, mode):
        # blocks of 5 rows of d=6 put block edges inside every scatter
        monkeypatch.setattr("vuglab.params._SCATTER_CELL_BUDGET", 5 * 6)
        blocked = self._one_step(mode)
        monkeypatch.setattr("vuglab.model.scatter_add", np.add.at)
        monkeypatch.setattr("vuglab.generator.scatter_add", np.add.at)
        assert self._one_step(mode) == blocked


class TestMergedGradients:
    """`train_step` sums the two domains' BPR gradients by adding the target
    dict into the source dict; pin that against the sum into an explicit
    zero buffer per MAIN tensor, bit for bit."""

    @staticmethod
    def _batches(tr):
        tr.refresh_virtuals()
        rng = np.random.default_rng(5)
        bs = TrainBatch(SOURCE, *next(tr.pool_src.iter_batches(64, rng)))
        bt = TrainBatch(TARGET, *next(tr.pool_tgt.iter_batches(64, rng)))
        return bs, bt

    @pytest.mark.parametrize("mode", [CDR_VUG, TARGET_ONLY])
    def test_merge_matches_a_zero_buffer_sum(self, mode):
        cross, ss, st = tiny_workload()
        merged = Trainer(cross, ss, st, quick_cfg(mode=mode, gen_every=1000))
        bs, bt = self._batches(merged)
        merged.train_step(bs, bt)

        ref = Trainer(cross, ss, st, quick_cfg(mode=mode, gen_every=1000))
        bs, bt = self._batches(ref)
        grads = {n: np.zeros_like(ref.store.get(n)) for n in ref.store.names(MAIN)}
        for part in (ref.model.bpr_loss(bs)[1], ref.model.bpr_loss(bt, ref.virtual)[1]):
            for name, g in part.items():
                grads[name] += g
        assert (SRC_USER in ref.model.bpr_loss(bt, ref.virtual)[1]) == (mode == CDR_VUG)
        ref.store.adam_step(grads, ref.cfg.adam_main, MAIN)
        assert merged.store.checksum(MAIN) == ref.store.checksum(MAIN)


class TestFitLoop:
    def test_eval_cadence_and_final_epoch(self):
        cross, ss, st = tiny_workload()
        tr = Trainer(cross, ss, st, quick_cfg(epochs=5, eval_every=2, patience=50))
        tr.fit()
        assert [e["epoch"] for e in tr.log.evals] == [1, 3, 4]

    def test_best_checkpoint_restored(self):
        cross, ss, st = tiny_workload()
        tr = Trainer(cross, ss, st, quick_cfg(epochs=4, eval_every=1, patience=50))
        tr.fit()
        best = max(e["val_ndcg10"] for e in tr.log.evals)
        again = tr._validate_now().value("ndcg", 10)
        assert again == best

    def test_validation_without_positives_fails_before_training(self):
        """With eval_every > 0 and no target validation positive, `fit`
        fails before its first step; with eval_every 0 it trains."""
        cross, ss, st = tiny_workload(target_ratios=(0.8, 0.0, 0.2))
        assert len(st.valid) == 0
        tr = Trainer(cross, ss, st, quick_cfg(eval_every=1))
        with pytest.raises(ValueError, match="eval_every=1"):
            tr.fit()
        assert tr.log.steps == [] and tr.store.step_count[MAIN] == 0
        Trainer(cross, ss, st, quick_cfg(eval_every=0)).fit()

    @pytest.mark.parametrize("mode", [CDR_VUG, KNN_VUG])
    def test_virtual_modes_need_overlapping_users(self, mode):
        spec = SyntheticCdrSpec(n_source_users=20, n_target_users=20, overlap_ratio=0.0,
                                n_items_source=20, n_items_target=20, latent_dim=4,
                                interactions_per_user=8, seed=3)
        cross = synth_cdr(spec)
        ss, st = prepare_splits(cross, seed=3)
        with pytest.raises(ValueError, match=f"mode {mode} needs overlapping users"):
            Trainer(cross, ss, st, quick_cfg(mode=mode))
        Trainer(cross, ss, st, quick_cfg(mode=CDR)).fit()

    def test_zero_epochs_is_a_no_op(self):
        cross, ss, st = tiny_workload()
        tr = Trainer(cross, ss, st, quick_cfg(epochs=0))
        tr.fit()
        assert tr.log.steps == [] and tr.log.epochs == []

    def test_epoch_rows_report_generator_share(self):
        cross, ss, st = tiny_workload()
        tr = Trainer(cross, ss, st, quick_cfg(mode=CDR_VUG, epochs=2))
        tr.fit()
        for row in tr.log.epochs:
            assert 0.0 <= row["gen_seconds"] <= row["seconds"]


class TestDeterminismAndRecovery:
    def test_identical_runs_are_bit_identical(self):
        cross, ss, st = tiny_workload()
        runs = []
        for _ in range(2):
            tr = Trainer(cross, ss, st, quick_cfg(mode=CDR_VUG, epochs=3))
            tr.fit()
            runs.append(tr)
        a, b = runs
        assert a.store.checksum(MAIN) == b.store.checksum(MAIN)
        assert a.store.checksum(GEN) == b.store.checksum(GEN)
        assert [r["l_cdr"] for r in a.log.steps] == [r["l_cdr"] for r in b.log.steps]

    def test_resume_round_trip(self, tmp_path):
        cross, ss, st = tiny_workload()
        tr = Trainer(cross, ss, st, quick_cfg(mode=CDR_VUG, epochs=1))
        tr.fit()
        path = str(tmp_path / "ckpt.json")
        tr.store.save(path)
        fresh = Trainer(cross, ss, st, quick_cfg(mode=CDR_VUG, epochs=1))
        fresh.store.load(path)
        assert fresh.store.checksum(MAIN) == tr.store.checksum(MAIN)
        assert fresh.store.checksum(GEN) == tr.store.checksum(GEN)
        assert fresh.model.store is fresh.store and fresh.gen.store is fresh.store

    def test_resume_rejects_mismatched_shape(self, tmp_path):
        cross, ss, st = tiny_workload()
        plain = Trainer(cross, ss, st, quick_cfg(mode=CDR, epochs=0))
        path = str(tmp_path / "plain.json")
        plain.store.save(path)
        vug = Trainer(cross, ss, st, quick_cfg(mode=CDR_VUG, epochs=0))
        with pytest.raises(ValueError, match="does not match this store: 'GEN/"):
            vug.store.load(path)

    def test_divergence_raises_with_snapshot(self):
        cross, ss, st = tiny_workload()
        tr = Trainer(cross, ss, st, quick_cfg())
        tr.store.get(TGT_USER)[:] = np.nan
        with pytest.raises(TrainingDiverged) as err:
            tr.train_step(
                TrainBatch(SOURCE, [0], [0], [1]), TrainBatch(TARGET, [0], [0], [1])
            )
        assert err.value.snapshot is not None
        assert any(not np.isfinite(v) for v in err.value.losses.values())
