"""End-to-end acceptance suite: one test per numbered shipping requirement.

Run with ``pytest tests/test_acceptance.py -v`` for the pass/fail list, add
``-s`` to see one measured-margin line per criterion. The directional
fairness checks (criteria 7-9) train 36 full models and the overlap sweep
(criterion 8) another 72, so this file takes a few minutes of CPU; every
run is seeded and the assertions sit well inside margins measured across
independent seed sets. Criteria 7-10 carry the `slow` mark; criteria 1-6
take about a second and run in the quick `pytest -m "not slow"` loop too.
"""

import dataclasses
import time

import numpy as np
import pytest

from vuglab.channels import (
    NONOVERLAPPING,
    OVERLAPPING,
    bias_experiment,
    exact_joint,
    info_quantities,
    random_spec,
)
from vuglab.cli import (
    ExperimentConfig,
    SyntheticCdrSpec,
    prepare_splits,
    run_single,
    synth_cdr,
)
from vuglab.generator import (
    CHANNELS,
    GEN_TENSORS,
    GeneratorParams,
    attention_backward,
    attention_forward,
    forward_users,
)
from vuglab.limiter import constrain_loss, super_loss
from vuglab.metrics import evaluate, hit_rate_at_k, rank_items
from vuglab.model import SOURCE, SRC_ITEM, SRC_USER, TARGET, TGT_ITEM, TGT_USER, TrainBatch
from vuglab.params import GEN, MAIN, AdamConfig, ParameterStore, finite_diff_check
from vuglab.training import CDR, CDR_VUG, TARGET_ONLY, TrainConfig, Trainer

SEEDS = tuple(range(12))
MAIN_TABLES = (SRC_USER, SRC_ITEM, TGT_USER, TGT_ITEM)


def _passline(n: int, msg: str):
    print(f"[criterion {n:02d}] PASS {msg}")


# ---------------------------------------------------------------------------
# shared headline workload: 2000 users/domain, 30% overlap, 500 items/domain,
# latent dim 8, 20 interactions per user. The target split keeps only 4 train
# items per user so the nonoverlap group genuinely starves without a source
# signal; affinity noise 2.0 keeps single-domain ranking hard enough that the
# overlap advantage of plain CDR is visible above seed noise.
# ---------------------------------------------------------------------------


def _headline_run(mode: str, seed: int, overlap: float = 0.3):
    spec = SyntheticCdrSpec(noise=2.0, overlap_ratio=overlap, seed=seed)
    cross = synth_cdr(spec)
    split_src, split_tgt = prepare_splits(cross, seed, target_ratios=(0.2, 0.4, 0.4))
    cfg = TrainConfig(
        mode=mode,
        epochs=25,
        batch_size=256,
        d=8,
        lam=0.6,
        gamma1=0.5,
        gamma2=0.9,
        adam_main=AdamConfig(lr=0.01),
        adam_gen=AdamConfig(lr=0.03),
        eval_every=0,
        seed=seed,
        warmup_epochs=3,
        gen_every=24,
        super_sample=64,
        constrain_sample=64,
    )
    trainer = Trainer(cross, split_src, split_tgt, cfg)
    trainer.fit()
    report = evaluate(
        trainer.model,
        cross,
        split_tgt,
        ks=(10,),
        virtual_sources=trainer.virtual if mode == CDR_VUG else None,
    )
    return report, trainer.log


@pytest.fixture(scope="module")
def headline():
    """NDCG@10 group metrics and train logs per mode across 12 seeds."""
    t0 = time.perf_counter()
    rows = {mode: [] for mode in (TARGET_ONLY, CDR, CDR_VUG)}
    logs = {CDR: [], CDR_VUG: []}
    for seed in SEEDS:
        for mode in (TARGET_ONLY, CDR, CDR_VUG):
            report, log = _headline_run(mode, seed)
            rows[mode].append(
                {
                    f: report.value("ndcg", 10, f)
                    for f in ("all", "overlap", "nonoverlap", "ugf")
                }
            )
            if mode in logs:
                logs[mode].append(log)
    return rows, logs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def ratio_sweep():
    """Seed-mean UGF(NDCG@10) for CDR and CDR_VUG per overlap ratio."""
    out = {}
    for ratio in (0.25, 0.50, 0.75):
        ugf = {CDR: [], CDR_VUG: []}
        for seed in SEEDS:
            for mode in (CDR, CDR_VUG):
                report, _ = _headline_run(mode, seed, overlap=ratio)
                ugf[mode].append(report.value("ndcg", 10, "ugf"))
        out[ratio] = (float(np.mean(ugf[CDR_VUG])), float(np.mean(ugf[CDR])))
    return out


# ---------------------------------------------------------------------------
# criterion 1: analytic gradients vs central differences
# ---------------------------------------------------------------------------


def _fd_instance():
    """A 30-user cross-domain instance with jittered parameters so every
    gradient path is generic (identity-initialized attention has too much
    structure to probe on its own)."""
    spec = SyntheticCdrSpec(
        n_source_users=30,
        n_target_users=30,
        overlap_ratio=0.4,
        n_items_source=20,
        n_items_target=20,
        latent_dim=4,
        interactions_per_user=10,
        noise=1.0,
        seed=5,
    )
    cross = synth_cdr(spec)
    split_src, split_tgt = prepare_splits(cross, 5)
    cfg = TrainConfig(
        mode=CDR_VUG,
        epochs=1,
        batch_size=32,
        d=6,
        lam=0.6,
        gamma1=0.4,
        gamma2=0.7,
        adam_main=AdamConfig(lr=0.01),
        adam_gen=AdamConfig(lr=0.03),
        eval_every=0,
        seed=5,
    )
    trainer = Trainer(cross, split_src, split_tgt, cfg)
    rng = np.random.default_rng(11)
    for name in MAIN_TABLES:
        t = trainer.store.get(name)
        t += 0.05 * rng.standard_normal(t.shape)
    for name in GEN_TENSORS:
        t = trainer.store.get(name)
        t += 0.2 * rng.standard_normal(t.shape)
    trainer.refresh_virtuals()
    return cross, split_src, split_tgt, trainer, rng


def test_criterion_01_gradients_match_finite_differences():
    t0 = time.perf_counter()
    cross, split_src, split_tgt, tr, rng = _fd_instance()
    store, model, gen = tr.store, tr.model, tr.gen
    worst = {}

    # ranking loss over both domains, virtual rows held constant (the same
    # detached treatment the main-partition update uses)
    def one_pos(split):
        by = split.by_user("train")
        return np.array([items[0] for items in by])

    bs = TrainBatch(
        SOURCE,
        np.arange(cross.source.n_users),
        one_pos(split_src),
        rng.integers(0, cross.source.n_items, cross.source.n_users),
    )
    bt = TrainBatch(
        TARGET,
        np.arange(cross.target.n_users),
        one_pos(split_tgt),
        rng.integers(0, cross.target.n_items, cross.target.n_users),
    )

    def bpr_value():
        ls, _ = model.bpr_loss(bs)
        lt, _ = model.bpr_loss(bt, tr.virtual)
        return ls + lt

    analytic = {n: np.zeros_like(store.get(n)) for n in MAIN_TABLES}
    for loss_grads in (
        model.bpr_loss(bs),
        model.bpr_loss(bt, tr.virtual),
    ):
        for name, g in loss_grads[1].items():
            analytic[name] += g
    worst["bpr"] = finite_diff_check(
        bpr_value, store, analytic, names=MAIN_TABLES, n_probe=120, seed=21
    )

    # the two limiter terms and their gamma2 blend flow through the shared
    # attention backward; probe each against the same forward closure
    ov_t, ov_s = cross.overlap_tgt, cross.overlap_src
    non = np.asarray(cross.target_nonoverlap, dtype=np.int64)
    src_rows = store.get(SRC_USER)[ov_s].copy()
    g2 = 0.7

    def rows_for(users, need_cache):
        return forward_users(
            gen,
            users,
            cross,
            store.get(TGT_USER),
            store.get(SRC_USER),
            tr.profiles,
            tr.profile_valid,
            need_cache=need_cache,
        )

    def super_value():
        rows, _ = rows_for(ov_t, False)
        return super_loss(rows, src_rows)[0]

    rows, cache = rows_for(ov_t, True)
    _, d_sup = super_loss(rows, src_rows)
    worst["super"] = finite_diff_check(
        super_value,
        store,
        attention_backward(gen, cache, d_sup),
        names=GEN_TENSORS,
        n_probe=120,
        seed=22,
    )

    def constrain_value():
        rows, _ = rows_for(non, False)
        return constrain_loss(rows)[0]

    rows, cache = rows_for(non, True)
    _, d_con = constrain_loss(rows)
    worst["constrain"] = finite_diff_check(
        constrain_value,
        store,
        attention_backward(gen, cache, d_con),
        names=GEN_TENSORS,
        n_probe=120,
        seed=23,
    )

    both = np.concatenate([ov_t, non])
    m = len(ov_t)

    def combined_value():
        rows, _ = rows_for(both, False)
        l_sup = super_loss(rows[:m], src_rows)[0]
        l_con = constrain_loss(rows[m:])[0]
        return g2 * l_sup + (1.0 - g2) * l_con

    rows, cache = rows_for(both, True)
    _, d_sup = super_loss(rows[:m], src_rows)
    _, d_con = constrain_loss(rows[m:])
    d_out = np.empty_like(rows)
    d_out[:m] = g2 * d_sup
    d_out[m:] = (1.0 - g2) * d_con
    worst["combined"] = finite_diff_check(
        combined_value,
        store,
        attention_backward(gen, cache, d_out),
        names=GEN_TENSORS,
        n_probe=120,
        seed=24,
    )

    elapsed = time.perf_counter() - t0
    assert max(worst.values()) <= 1e-4
    assert elapsed < 60.0
    _passline(
        1,
        f"480 probed coordinates, max rel err "
        f"{max(worst.values()):.2e} ({', '.join(f'{k} {v:.1e}' for k, v in worst.items())}), "
        f"{elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 2: attention invariants over 1000 random draws
# ---------------------------------------------------------------------------


def test_criterion_02_attention_invariants_over_1000_draws():
    rng = np.random.default_rng(0)
    for draw in range(1000):
        d = int(rng.integers(2, 7))
        n_q = int(rng.integers(1, 7))
        n_k = int(rng.integers(1, 9))
        store = ParameterStore()
        gp = GeneratorParams.create(store, d=d, gamma1=float(rng.uniform()))
        for name in ("gen_wv", "gen_wq", "gen_wk"):
            w = store.get(name)
            w += 0.3 * rng.standard_normal(w.shape)
        queries = rng.standard_normal((2, n_q, d))
        keys = rng.standard_normal((2, n_k, d))
        source = rng.standard_normal((n_k, d))
        _, cache = attention_forward(gp, queries, keys, source)
        alpha = cache.alpha

        assert np.all(alpha >= 0.0)
        assert np.max(np.abs(alpha.sum(axis=1) - 1.0)) <= 1e-9

        # a key-bias shift adds q_t . shift / sqrt(d) to a whole logit row of
        # its channel, which cannot move the weights
        bk = store.get("gen_bk")
        saved = bk.copy()
        bk += rng.standard_normal((2, d)) * 7.0
        _, shifted = attention_forward(gp, queries, keys, source)
        bk[:] = saved
        assert np.max(np.abs(shifted.alpha - alpha)) <= 1e-12

        # permuting the keys and source rows permutes the weight columns and
        # nothing else
        perm = rng.permutation(n_k)
        _, permuted = attention_forward(gp, queries, keys[:, perm], source[perm])
        assert np.max(np.abs(permuted.alpha - alpha[:, perm])) <= 1e-12

        # the mixing weight collapses to a single channel at its endpoints
        for gamma1, channel in ((0.0, "item"), (1.0, "user")):
            lone = GeneratorParams(store=store, d=d, gamma1=gamma1)
            _, end = attention_forward(lone, queries, keys, source)
            assert np.array_equal(end.alpha, end.alpha_c[CHANNELS.index(channel)])
    _passline(2, "1000 draws: convexity 1e-9, shift/permutation 1e-12, endpoints exact")


# ---------------------------------------------------------------------------
# criterion 3: limiter closed forms
# ---------------------------------------------------------------------------


def test_criterion_03_limiter_closed_forms():
    rng = np.random.default_rng(4)

    # supervision term vanishes on an exact match
    for _ in range(10):
        x = rng.standard_normal((int(rng.integers(1, 8)), int(rng.integers(1, 6))))
        assert super_loss(x, x.copy())[0] == 0.0

    # spread term: zero on coincident rows, -2 on one unit-squared pair
    row = rng.standard_normal(3)
    loss, grads = constrain_loss(np.tile(row, (4, 1)))
    assert loss == 0.0
    assert np.all(grads == 0.0)
    pair = np.array([[0.0, 0.0], [1.0, 0.0]])
    np.testing.assert_allclose(constrain_loss(pair)[0], -2.0, atol=1e-15)

    # never positive, any batch
    for _ in range(200):
        x = rng.standard_normal((int(rng.integers(2, 9)), int(rng.integers(1, 6))))
        x *= rng.uniform(0.1, 3.0)
        assert constrain_loss(x)[0] <= 0.0

    # 3-point sweeps: two pair distances pinned, the third grows, so the
    # loss must strictly decrease along the arc
    a = np.array([0.0, 0.0])
    b = np.array([1.0, 0.0])
    for radius in (0.5, 0.8, 1.3):
        losses = []
        for theta in np.linspace(0.2, 3.0, 8):
            c = radius * np.array([np.cos(theta), np.sin(theta)])
            losses.append(constrain_loss(np.stack([a, b, c]))[0])
        assert all(y < x for x, y in zip(losses, losses[1:]))
    _passline(3, "match zero, coincident zero, unit pair -2, <= 0 sweep, arc monotone")


# ---------------------------------------------------------------------------
# criterion 4: partition freeze over a 100-step training trace
# ---------------------------------------------------------------------------


def test_criterion_04_partition_freeze_over_100_step_trace():
    spec = SyntheticCdrSpec(
        n_source_users=40,
        n_target_users=40,
        overlap_ratio=0.4,
        n_items_source=25,
        n_items_target=25,
        latent_dim=4,
        interactions_per_user=8,
        noise=0.5,
        seed=2,
    )
    cross = synth_cdr(spec)
    split_src, split_tgt = prepare_splits(cross, 2, target_ratios=(0.5, 0.25, 0.25))
    # a cadence longer than the trace keeps train_step purely on the MAIN
    # partition; the generator steps are issued explicitly in between
    cfg = TrainConfig(
        mode=CDR_VUG,
        epochs=1,
        batch_size=32,
        d=6,
        adam_main=AdamConfig(lr=0.01),
        adam_gen=AdamConfig(lr=0.03),
        eval_every=0,
        seed=2,
        gen_every=10_000,
    )
    tr = Trainer(cross, split_src, split_tgt, cfg)
    tr.refresh_virtuals()
    rng = np.random.default_rng(7)
    n_su, n_si = cross.source.n_users, cross.source.n_items
    n_tu, n_ti = cross.target.n_users, cross.target.n_items
    main_trace, gen_trace = [], []
    for _ in range(50):
        gen_before = tr.store.checksum(GEN)
        bs = TrainBatch(
            SOURCE,
            rng.integers(0, n_su, 16),
            rng.integers(0, n_si, 16),
            rng.integers(0, n_si, 16),
        )
        bt = TrainBatch(
            TARGET,
            rng.integers(0, n_tu, 16),
            rng.integers(0, n_ti, 16),
            rng.integers(0, n_ti, 16),
        )
        tr.train_step(bs, bt)
        assert tr.store.checksum(GEN) == gen_before
        main_trace.append(tr.store.checksum(MAIN))

        main_before = tr.store.checksum(MAIN)
        tr._gen_step()
        assert tr.store.checksum(MAIN) == main_before
        gen_trace.append(tr.store.checksum(GEN))
    # it was a live trace: both partitions kept moving on their own steps
    assert len(set(main_trace)) == 50
    assert len(set(gen_trace)) == 50
    _passline(4, "100 alternating steps, both partitions bitwise frozen across the fence")


# ---------------------------------------------------------------------------
# criterion 5: metric oracle equivalence + random-scorer calibration
# ---------------------------------------------------------------------------


def test_criterion_05_metrics_match_independent_brute_force():
    spec = SyntheticCdrSpec(
        n_source_users=20,
        n_target_users=20,
        overlap_ratio=0.5,
        n_items_source=50,
        n_items_target=50,
        latent_dim=4,
        interactions_per_user=10,
        noise=1.0,
        seed=9,
    )
    cross = synth_cdr(spec)
    split_src, split_tgt = prepare_splits(cross, 9)
    cfg = TrainConfig(
        mode=CDR_VUG,
        epochs=2,
        batch_size=64,
        d=6,
        adam_main=AdamConfig(lr=0.01),
        adam_gen=AdamConfig(lr=0.03),
        eval_every=0,
        seed=9,
    )
    tr = Trainer(cross, split_src, split_tgt, cfg)
    tr.fit()
    ks = (1, 5, 10)
    report = evaluate(tr.model, cross, split_tgt, ks=ks, virtual_sources=tr.virtual)

    tu = tr.store.get(TGT_USER)
    su = tr.store.get(SRC_USER)
    ti = tr.store.get(TGT_ITEM)
    src_of = cross.src_of_tgt()
    by_train = split_tgt.by_user("train")
    by_test = split_tgt.by_user("test")
    overlap = set(int(t) for t in cross.overlap_tgt)
    lam = tr.model.effective_lam
    vals = {(m, k): ([], []) for m in ("hr", "ndcg") for k in ks}
    for u in range(split_tgt.n_users):
        rel = set(by_test[u])
        if not rel:
            continue
        if src_of[u] >= 0:
            ehat = su[src_of[u]]
        else:
            assert tr.virtual[u].any()
            ehat = tr.virtual[u]
        scores = ti @ (tu[u] + lam * ehat)
        ranked = sorted(
            (i for i in range(split_tgt.n_items) if i not in set(by_train[u])),
            key=lambda i: (-scores[i], i),
        )
        side = 0 if u in overlap else 1
        for k in ks:
            hit = 1.0 if any(i in rel for i in ranked[:k]) else 0.0
            dcg = sum(1.0 / np.log2(p + 2) for p, i in enumerate(ranked[:k]) if i in rel)
            ideal = sum(1.0 / np.log2(p + 2) for p in range(min(k, len(rel))))
            vals[("hr", k)][side].append(hit)
            vals[("ndcg", k)][side].append(dcg / ideal)
    for m in ("hr", "ndcg"):
        for k in ks:
            ov, non = vals[(m, k)]
            assert abs(report.value(m, k, "overlap") - np.mean(ov)) <= 1e-12
            assert abs(report.value(m, k, "nonoverlap") - np.mean(non)) <= 1e-12
            assert abs(report.value(m, k, "all") - np.mean(ov + non)) <= 1e-12
            assert (
                abs(report.value(m, k, "ugf") - abs(np.mean(ov) - np.mean(non)))
                <= 1e-12
            )

    # a scorer with no signal lands at HR@10 = 10/1000 up to binomial noise
    rng = np.random.default_rng(0)
    hits = 0
    n_users, n_items = 500, 1000
    for _ in range(n_users):
        scores = rng.standard_normal(n_items)
        pos = int(rng.integers(n_items))
        hits += hit_rate_at_k(rank_items(scores, set()), {pos}, 10)
    rate = hits / n_users
    bound = 3.0 * np.sqrt(0.01 * 0.99 / n_users)
    assert abs(rate - 0.01) <= bound
    _passline(
        5,
        f"brute force agrees to 1e-12 on 20x50; random scorer HR@10 {rate:.4f} "
        f"within {bound:.4f} of 0.01",
    )


# ---------------------------------------------------------------------------
# criterion 6: latent-channel information properties over 100 random specs
# ---------------------------------------------------------------------------


def test_criterion_06_channel_information_properties():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    degenerate = 0
    for _ in range(100):
        spec = random_spec(rng)
        est_ov = info_quantities(exact_joint(spec, OVERLAPPING))
        est_non = info_quantities(exact_joint(spec, NONOVERLAPPING))
        for est in (est_ov, est_non):
            assert est["i_bits"] >= 0.0
            assert abs(est["h_cond"] - (est["h_t"] - est["i_bits"])) <= 1e-12
            assert est["bayes_error"] >= est["fano_lower_bound"]
        # severing the latent yields a product joint: zero information, exactly
        assert est_non["i_bits"] == 0.0
        r = bias_experiment(spec)
        if r["degenerate"]:
            degenerate += 1
        else:
            assert r["overlapping"]["h_cond"] < r["nonoverlapping"]["h_cond"]
            assert (
                r["overlapping"]["bayes_error"]
                <= r["nonoverlapping"]["bayes_error"] + 1e-12
            )
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _passline(
        6,
        f"100 specs: I >= 0, chain 1e-12, product I == 0 exactly, Bayes >= Fano, "
        f"strict reduction on {100 - degenerate} non-degenerate, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criteria 7-9: directional fairness, overlap sweep, efficiency
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_07_directional_fairness_reproduction(headline):
    rows, _, elapsed = headline

    def mean(mode, field):
        return float(np.mean([r[field] for r in rows[mode]]))

    d_ov = mean(CDR, "overlap") - mean(TARGET_ONLY, "overlap")
    d_non = mean(CDR, "nonoverlap") - mean(TARGET_ONLY, "nonoverlap")
    ugf_cdr = mean(CDR, "ugf")
    ugf_vug = mean(CDR_VUG, "ugf")
    rel = (mean(CDR_VUG, "all") - mean(CDR, "all")) / mean(CDR, "all")

    # (a) source sharing lifts the overlap group harder: the bias exists
    assert d_ov > d_non
    # (b) the generator shrinks the seed-mean group gap below plain CDR
    assert ugf_vug < ugf_cdr
    # (c) without giving up overall accuracy (>= -5% relative)
    assert rel >= -0.05
    assert elapsed < 900.0
    _passline(
        7,
        f"12 seeds: (a) d_ov {d_ov:+.4f} > d_non {d_non:+.4f}; "
        f"(b) UGF {ugf_vug:.4f} < {ugf_cdr:.4f}; (c) rel {rel:+.2%}; "
        f"{elapsed:.0f}s",
    )


@pytest.mark.slow
def test_criterion_08_overlap_ratio_sweep(ratio_sweep):
    for ratio, (ugf_vug, ugf_cdr) in sorted(ratio_sweep.items()):
        assert ugf_vug <= ugf_cdr, f"overlap {ratio:.0%}: {ugf_vug} > {ugf_cdr}"
    msg = ", ".join(
        f"{ratio:.0%} {v:.4f}<={c:.4f}" for ratio, (v, c) in sorted(ratio_sweep.items())
    )
    _passline(8, f"seed-mean UGF with VUG <= without at every ratio: {msg}")


@pytest.mark.slow
def test_criterion_09_generator_overhead_is_bounded(headline):
    _, logs, _ = headline

    def epoch_mean(mode):
        secs = [row["seconds"] for log in logs[mode] for row in log.epochs]
        return float(np.mean(secs))

    ratio = epoch_mean(CDR_VUG) / epoch_mean(CDR)
    assert ratio <= 1.5
    _passline(
        9,
        f"per-epoch wall clock: CDR_VUG {epoch_mean(CDR_VUG):.3f}s vs "
        f"CDR {epoch_mean(CDR):.3f}s, ratio {ratio:.2f} <= 1.5",
    )


# ---------------------------------------------------------------------------
# criterion 10: byte-identical reports for identical config and seed
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_10_reports_are_byte_identical(tmp_path):
    cfg = ExperimentConfig(
        synthetic=SyntheticCdrSpec(noise=2.0, seed=0),
        modes=["cdr-vug"],
        train=TrainConfig(
            mode=CDR_VUG,
            epochs=25,
            batch_size=256,
            d=8,
            lam=0.6,
            gamma1=0.5,
            gamma2=0.9,
            adam_main=AdamConfig(lr=0.01),
            adam_gen=AdamConfig(lr=0.03),
            eval_every=0,
            warmup_epochs=3,
            gen_every=24,
            super_sample=64,
            constrain_sample=64,
        ),
        ks=(10,),
        out_dir=str(tmp_path),
        seeds=[0],
    )
    first = run_single(cfg, "cdr-vug", 0, str(tmp_path / "a"))
    second = run_single(cfg, "cdr-vug", 0, str(tmp_path / "b"))
    assert first == second
    # wall-clock timing lives in the train log and run metadata, never in
    # the report, so the written artifacts must agree byte for byte
    a = (tmp_path / "a" / "report_cdr-vug_0.json").read_bytes()
    b = (tmp_path / "b" / "report_cdr-vug_0.json").read_bytes()
    assert a == b
    _passline(10, f"two runs, {len(a)} report bytes, identical")
