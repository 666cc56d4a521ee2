"""Driver-level tests: synthetic data generation, config parsing, artifact
layout, cross-seed summaries, and the command-line entry point.

Training runs here use a 30+30-user synthetic instance with d=4 and one or
two epochs, so every test stays well under a second; statistical quality of
the results is out of scope (covered by the evaluation-level suites).
"""

import contextlib
import csv
import dataclasses
import io
import json
import os
import platform

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vuglab import channels, cli, params
from vuglab.cli import (
    ConfigError,
    ExperimentConfig,
    SyntheticCdrSpec,
    _apply_overrides,
    _from_dict,
    build_data,
    build_parser,
    comparison_table,
    grid_search,
    load_config,
    main,
    prepare_splits,
    run_experiment,
    run_single,
    subsample_users,
    summarize,
    synth_cdr,
    write_synth_tsv,
)
from vuglab.data import (
    DomainDataset,
    ParseError,
    binarize,
    dedupe,
    load_interactions,
    split_per_user,
)
from vuglab.generator import forward_users
from vuglab.model import SRC_USER, TGT_USER
from vuglab.params import AdamConfig
from vuglab.training import CDR, CDR_VUG, TARGET_ONLY, TrainConfig, Trainer

# analytic conditional entropy of the 10%-flip binary symmetric demo pair
BSC_H_COND = 0.6800770457282796


def tiny_spec(**over):
    base = dict(
        n_source_users=30,
        n_target_users=30,
        overlap_ratio=0.4,
        n_items_source=20,
        n_items_target=20,
        latent_dim=4,
        interactions_per_user=10,
        noise=0.5,
        seed=0,
    )
    base.update(over)
    return SyntheticCdrSpec(**base)


def tiny_train(**over):
    base = dict(
        mode=CDR,
        epochs=2,
        batch_size=64,
        d=4,
        adam_main=AdamConfig(lr=0.01),
        adam_gen=AdamConfig(lr=0.03),
        seed=0,
    )
    base.update(over)
    return TrainConfig(**base)


def tiny_cfg(out_dir, **over):
    base = dict(
        synthetic=tiny_spec(),
        modes=["cdr"],
        train=tiny_train(),
        ks=(5, 10),
        out_dir=str(out_dir),
        seeds=[0],
    )
    base.update(over)
    return ExperimentConfig(**base)


def tiny_cfg_dict(**over):
    """Raw-JSON form of tiny_cfg for config-file tests."""
    base = {
        "synthetic": {
            "n_source_users": 30,
            "n_target_users": 30,
            "overlap_ratio": 0.4,
            "n_items_source": 20,
            "n_items_target": 20,
            "latent_dim": 4,
            "interactions_per_user": 10,
            "noise": 0.5,
        },
        "modes": ["cdr"],
        "train": {"epochs": 1, "batch_size": 64, "d": 4},
        "ks": [5, 10],
        "seeds": [0],
    }
    base.update(over)
    return base


def write_cfg(tmp_path, name="cfg.json", **over):
    path = tmp_path / name
    path.write_text(json.dumps(tiny_cfg_dict(**over)), encoding="utf-8")
    return str(path)


def items_by_user(ds: DomainDataset) -> dict[int, set[int]]:
    out: dict[int, set[int]] = {}
    for u, i in ds.interactions.tolist():
        out.setdefault(u, set()).add(i)
    return out


class TestSyntheticSpec:
    def test_defaults_are_valid(self):
        assert SyntheticCdrSpec().n_overlap == 600

    def test_overlap_count_rounds_from_ratio(self):
        assert tiny_spec(overlap_ratio=0.4).n_overlap == 12
        assert tiny_spec(overlap_ratio=0.33).n_overlap == 10
        assert tiny_spec(overlap_ratio=0.0).n_overlap == 0

    @pytest.mark.parametrize(
        "over, match",
        [
            (dict(n_source_users=0), "n_source_users"),
            (dict(n_items_target=0), "n_items_target"),
            (dict(latent_dim=0), "latent_dim"),
            (dict(overlap_ratio=1.5), "overlap_ratio"),
            (dict(noise=-0.1), "noise"),
            (dict(interactions_per_user=25), "interactions_per_user"),
            (dict(n_source_users=5, overlap_ratio=1.0), "overlap exceeds"),
        ],
    )
    def test_validation_rejects(self, over, match):
        with pytest.raises(ConfigError, match=match):
            tiny_spec(**over)


class TestSynthCdr:
    def test_shape_overlap_and_ids(self):
        cross = synth_cdr(tiny_spec())
        assert cross.source.n_users == 30
        assert cross.target.n_users == 30
        assert cross.source.n_items == 20
        assert len(cross.overlap) == 12
        # overlapping rows refer to the same external person on both sides
        src_ids = cross.source.user_ids()
        tgt_ids = cross.target.user_ids()
        for s, t in cross.overlap:
            assert src_ids[s] == tgt_ids[t]
            assert src_ids[s].startswith("p")
        assert cross.target.item_ids()[0] == "i0"

    def test_every_user_gets_the_requested_positives(self):
        cross = synth_cdr(tiny_spec())
        for ds in (cross.source, cross.target):
            per_user = items_by_user(ds)
            assert len(per_user) == ds.n_users
            assert all(len(v) == 10 for v in per_user.values())

    def test_deterministic_in_seed(self):
        a = synth_cdr(tiny_spec(seed=7))
        b = synth_cdr(tiny_spec(seed=7))
        c = synth_cdr(tiny_spec(seed=8))
        assert np.array_equal(a.source.interactions, b.source.interactions)
        assert np.array_equal(a.target.interactions, b.target.interactions)
        assert np.array_equal(a.overlap, b.overlap)
        assert not np.array_equal(a.source.interactions, c.source.interactions)

    def test_top_n_is_a_stable_argsort(self, monkeypatch):
        # 20 of 20 items keeps every column, so the whole order must match
        for spec in (tiny_spec(), tiny_spec(interactions_per_user=20), tiny_spec(noise=0.0)):
            got = synth_cdr(spec)
            with monkeypatch.context() as mp:
                mp.setattr(
                    cli, "top_columns",
                    lambda key, kk: np.argsort(key, axis=1, kind="stable")[:, :kk],
                )
                want = synth_cdr(spec)
            for a, b in ((got.source, want.source), (got.target, want.target)):
                assert a.interactions.tobytes() == b.interactions.tobytes()

    def test_extreme_overlap_ratios(self):
        assert len(synth_cdr(tiny_spec(overlap_ratio=0.0)).overlap) == 0
        full = synth_cdr(tiny_spec(overlap_ratio=1.0))
        assert len(full.overlap) == 30


class TestPrepareSplits:
    def test_ratio_defaults_per_user(self):
        cross = synth_cdr(tiny_spec())
        split_src, split_tgt = prepare_splits(cross, seed=3)
        # 10 positives per user: target 8/1/1, source 8/2/0
        for which, want in (("train", 8), ("valid", 1), ("test", 1)):
            assert all(len(v) == want for v in split_tgt.by_user(which))
        for which, want in (("train", 8), ("valid", 2), ("test", 0)):
            assert all(len(v) == want for v in split_src.by_user(which))

    def test_seeded_and_decoupled(self):
        cross = synth_cdr(tiny_spec())
        a_src, a_tgt = prepare_splits(cross, seed=3)
        b_src, b_tgt = prepare_splits(cross, seed=3)
        c_src, _ = prepare_splits(cross, seed=4)
        assert np.array_equal(a_src.train, b_src.train)
        assert np.array_equal(a_tgt.test, b_tgt.test)
        assert not np.array_equal(a_src.train, c_src.train)
        # the two domains draw from separate streams even at equal seed:
        # source from seed + 11, target from seed + 13
        want_src = split_per_user(cross.source, (0.8, 0.2, 0.0), seed=14)
        want_tgt = split_per_user(cross.target, (0.8, 0.1, 0.1), seed=16)
        for got, want in ((a_src, want_src), (a_tgt, want_tgt)):
            for f in dataclasses.fields(want):
                assert np.array_equal(getattr(got, f.name), getattr(want, f.name)), f.name


class TestConfigParsing:
    def test_nested_round_trip(self):
        raw = tiny_cfg_dict(seeds=[1, 2])
        raw["train"]["adam_main"] = {"lr": 0.02}
        cfg = _from_dict(ExperimentConfig, raw)
        assert isinstance(cfg.synthetic, SyntheticCdrSpec)
        assert cfg.synthetic.n_items_source == 20
        assert isinstance(cfg.train, TrainConfig)
        assert cfg.train.adam_main.lr == 0.02
        assert cfg.ks == (5, 10)
        assert cfg.seeds == (1, 2)

    def test_unknown_keys_fail_loudly(self):
        with pytest.raises(ConfigError, match="unknown ExperimentConfig keys"):
            _from_dict(ExperimentConfig, {"bogus": 1})
        with pytest.raises(ConfigError, match="TrainConfig"):
            _from_dict(ExperimentConfig, {"train": {"learning_rate": 0.1}})
        with pytest.raises(ConfigError, match=r"unknown TrainConfig keys: \['detach_virtual'\]"):
            _from_dict(ExperimentConfig, {"train": {"detach_virtual": False}})
        with pytest.raises(ConfigError, match="SyntheticCdrSpec"):
            _from_dict(ExperimentConfig, {"synthetic": {"users": 10}})

    def test_unbuildable_value_is_a_config_error(self):
        with pytest.raises(ConfigError, match="bad ExperimentConfig"):
            _from_dict(ExperimentConfig, {"ks": 5})

    def test_field_types_drive_parsing(self):
        cfg = _from_dict(
            ExperimentConfig,
            {
                "train": {"lam": 1},
                "ks": [10],
                "synthetic": None,
                "source_path": "s.tsv",
                "target_path": "t.tsv",
                "max_users": None,
            },
        )
        assert cfg.train.lam == 1.0 and isinstance(cfg.train.lam, float)
        assert cfg.ks == (10,)
        assert cfg.synthetic is None and cfg.max_users is None

    def test_load_config_reads_file(self, tmp_path):
        path = write_cfg(tmp_path, seeds=[4])
        cfg = load_config(path)
        assert cfg.seeds == (4,)
        assert cfg.train.epochs == 1

    def test_load_config_errors(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(str(bad))
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(str(tmp_path / "missing.json"))


class TestExperimentConfigValidate:
    def test_unknown_mode(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown mode"):
            tiny_cfg(tmp_path, modes=["cdr", "mystery"])

    def test_empty_modes(self, tmp_path):
        # `train` would run nothing, `eval` and `train --resume` had no mode
        with pytest.raises(ConfigError, match="modes must be a non-empty list"):
            tiny_cfg(tmp_path, modes=[])

    def test_paths_must_pair(self, tmp_path):
        with pytest.raises(ConfigError, match="given together"):
            tiny_cfg(tmp_path, source_path="s.tsv")

    def test_some_dataset_is_required(self, tmp_path):
        with pytest.raises(ConfigError, match="paths or a synthetic spec"):
            tiny_cfg(tmp_path, synthetic=None)

    def test_empty_seeds(self, tmp_path):
        with pytest.raises(ConfigError, match="seed"):
            tiny_cfg(tmp_path, seeds=[])

    def test_train_errors_surface_as_config_errors(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        with pytest.raises(ConfigError, match="lam"):
            dataclasses.replace(cfg, train=dataclasses.replace(cfg.train, lam=1.5))

    def test_synthetic_errors_surface(self, tmp_path):
        with pytest.raises(ConfigError, match="overlap_ratio"):
            tiny_cfg(tmp_path, synthetic=tiny_spec(overlap_ratio=-1))


class TestValidByConstruction:
    """The config dataclasses check themselves when built and are frozen,
    so an invalid config object cannot exist."""

    def test_fields_cannot_be_assigned(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        for obj, name, value in (
            (cfg, "max_users", 5),
            (cfg.train, "lam", 0.1),
            (cfg.train.adam_gen, "lr", 0.1),
            (cfg.synthetic, "noise", 0.0),
        ):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, value)

    def test_list_fields_are_stored_as_tuples(self):
        """Lists passed in are kept as tuples, so no list of a frozen
        config can change after its checks."""
        cfg = ExperimentConfig(modes=["cdr"], seeds=[0, 1], ks=[10])
        assert (cfg.modes, cfg.seeds, cfg.ks) == (("cdr",), (0, 1), (10,))
        with pytest.raises(AttributeError):
            cfg.seeds.append(0)

    def test_replace_checks_the_new_config(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        with pytest.raises(ConfigError, match="max_users"):
            dataclasses.replace(cfg, max_users=0)
        with pytest.raises(ConfigError, match="overlap exceeds"):
            dataclasses.replace(cfg.synthetic, n_source_users=4, n_target_users=5, overlap_ratio=1.0)
        assert dataclasses.replace(cfg, max_users=5).max_users == 5 and cfg.max_users is None

    def test_constructor_errors_keep_their_message(self):
        """A ConfigError from a class's own checks passes `_from_dict`
        unchanged; other build errors keep the `bad <class>:` prefix."""
        with pytest.raises(ConfigError, match=r"^gamma1 must lie in \[0, 1\]$"):
            _from_dict(ExperimentConfig, {"train": {"gamma1": 1.5}})
        with pytest.raises(ConfigError, match=r"^bad ChannelSpec: .*p_s"):
            _from_dict(channels.ChannelSpec, {"prior": [1.0]})

    def test_channel_spec_arrays_parse_from_number_lists(self):
        spec = _from_dict(
            channels.ChannelSpec, {"prior": [1, 0], "p_s": [[1, 0], [0.5, 0.5]], "p_t": [[1], [1]]}
        )
        assert spec.prior.dtype == np.float64 and spec.p_s.shape == (2, 2)
        for bad in ([True, False], [0.5, "0.5"], [0.5, None], 1.0, [[0.5], [False]]):
            with pytest.raises(ConfigError, match="ChannelSpec: prior: expected"):
                _from_dict(channels.ChannelSpec, {"prior": bad, "p_s": [[1.0]], "p_t": [[1.0]]})
        # a ragged list is a list of numbers that no array holds
        with pytest.raises(ConfigError, match="bad ChannelSpec: setting an array element"):
            _from_dict(channels.ChannelSpec, {"prior": [[0.5], 0.5], "p_s": [[1.0]], "p_t": [[1.0]]})


class TestSubsampleUsers:
    def test_keeps_prefix_and_remaps_items(self):
        ds = DomainDataset(
            users={"a": 0, "b": 1, "c": 2},
            items={"x": 0, "y": 1, "z": 2},
            interactions=[(0, 0), (0, 1), (1, 1), (2, 2)],
        )
        sub = subsample_users(ds, 2)
        assert sub.n_users == 2
        assert sub.user_ids() == ["a", "b"]
        # z only belonged to the dropped user, so it leaves the vocabulary
        assert sub.item_ids() == ["x", "y"]
        assert sub.interactions.tolist() == [[0, 0], [0, 1], [1, 1]]

    def test_noop_when_large_enough(self):
        ds = DomainDataset(users={"a": 0}, items={"x": 0}, interactions=[(0, 0)])
        assert subsample_users(ds, 5) is ds


class TestWriteSynthTsv:
    def test_round_trip_through_the_loader(self, tmp_path):
        cross = synth_cdr(tiny_spec())
        write_synth_tsv(cross, str(tmp_path))
        for name, ds in (("source", cross.source), ("target", cross.target)):
            records = load_interactions(str(tmp_path / f"{name}.tsv"))
            loaded = DomainDataset.from_records(binarize(dedupe(records), 3.0))
            assert loaded.n_users == ds.n_users
            assert loaded.n_items == ds.n_items
            assert loaded.n_interactions == ds.n_interactions
            # dense indices may differ; compare external-id pairs
            want = {(ds.user_ids()[u], ds.item_ids()[i]) for u, i in ds.interactions}
            got = {
                (loaded.user_ids()[u], loaded.item_ids()[i])
                for u, i in loaded.interactions
            }
            assert got == want

    def test_stats_sidecar(self, tmp_path):
        write_synth_tsv(synth_cdr(tiny_spec()), str(tmp_path))
        stats = json.loads((tmp_path / "stats.json").read_text())
        assert [s["domain"] for s in stats] == ["source", "target"]
        assert stats[0]["n_users"] == 30
        assert stats[1]["overlap_ratio"] == pytest.approx(12 / 30)


class TestBuildData:
    def test_synthetic_branch_reseeds_spec(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        cross = build_data(cfg, seed=5)
        want = synth_cdr(tiny_spec(seed=5))
        assert np.array_equal(cross.source.interactions, want.source.interactions)
        assert np.array_equal(cross.overlap, want.overlap)

    def test_file_branch_with_subsampling(self, tmp_path):
        write_synth_tsv(synth_cdr(tiny_spec()), str(tmp_path))
        cfg = tiny_cfg(
            tmp_path,
            synthetic=None,
            source_path=str(tmp_path / "source.tsv"),
            target_path=str(tmp_path / "target.tsv"),
            k_core=1,
            max_users=15,
        )
        cross = build_data(cfg, seed=0)
        assert cross.source.n_users == 15
        assert cross.target.n_users == 15
        # overlap users were written first on both sides, so all survive
        assert len(cross.overlap) == 12


def ingest_lines(tag: str, seed: int) -> str:
    """An interaction file with repeated pairs (stamped and unstamped),
    ratings below 3.0 and a tail of users and items under k=3."""
    rng = np.random.default_rng(seed)
    rows = [
        (f"u{u}", f"{tag}{i}", f"{rng.integers(1, 6)}.0", str(rng.integers(100)))
        for u in range(60)
        for i in rng.choice(30, size=8, replace=False)
    ]
    rows += [
        (*rows[k][:2], f"{rng.integers(1, 6)}.0", *([str(rng.integers(100))] * int(rng.random() < 0.5)))
        for k in rng.choice(len(rows), size=120)
    ]
    rows += [(f"tail{u}", f"{tag}tail{u % 3}", "5.0") for u in range(10)]
    return "".join("\t".join(rows[k]) + "\n" for k in rng.permutation(len(rows)))


class TestIngestPair:
    """`build_data` loads the source in a forked child and the target in
    the calling process (`params.fork_pair`); the `forking` fixture forces
    the fork on these small files and checks that no child is left."""

    def config(self, tmp_path, source: str, target: str) -> str:
        (tmp_path / "source.tsv").write_text(source, encoding="utf-8")
        (tmp_path / "target.tsv").write_text(target, encoding="utf-8")
        return write_cfg(
            tmp_path, synthetic=None, k_core=3,
            source_path=str(tmp_path / "source.tsv"), target_path=str(tmp_path / "target.tsv"),
        )

    def test_forked_and_inline_loads_are_equal(self, tmp_path, forking):
        cfg = load_config(self.config(tmp_path, ingest_lines("s", 0), ingest_lines("t", 1)))
        cross = build_data(cfg, 0)
        assert len(forking) == 1
        for got, path in ((cross.source, cfg.source_path), (cross.target, cfg.target_path)):
            want = cli.load_domain(path, cfg.rating_threshold, cfg.k_core)
            assert list(got.users.items()) == list(want.users.items())
            assert list(got.items.items()) == list(want.items.items())
            assert got.interactions.dtype == want.interactions.dtype
            assert got.interactions.tobytes() == want.interactions.tobytes()
            # dedupe, binarize and k-core each removed rows
            rows = load_interactions(path)
            assert len(dedupe(rows)) < len(rows)
            assert len(binarize(dedupe(rows), cfg.rating_threshold)) < len(dedupe(rows))
            assert not any(user.startswith("tail") for user in got.users)

    @pytest.mark.parametrize("bad_source", [True, False], ids=["both-bad", "target-bad"])
    def test_the_source_error_is_reported_first(self, tmp_path, capsys, forking, bad_source):
        source = "u0\ti0\t5\nu1\ti1\tabc\n" if bad_source else ingest_lines("s", 0)
        path = self.config(tmp_path, source, "u0\tt0\t5\nu0\tt1\t4\nu1\tt1\txyz\n")
        assert main(["train", "--config", path, "--out", str(tmp_path / "out")]) == 3
        want = "line 2: bad rating 'abc'" if bad_source else "line 3: bad rating 'xyz'"
        err = capsys.readouterr().err
        assert f"runtime failure in train: {want}" in err and "Traceback" not in err
        assert len(forking) == 1

    def test_a_missing_target_exits_three_naming_it(self, tmp_path, capsys, forking):
        path = self.config(tmp_path, ingest_lines("s", 0), "")
        (tmp_path / "target.tsv").unlink()
        assert main(["train", "--config", path, "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "runtime failure in train: " in err and str(tmp_path / "target.tsv") in err

    def test_a_bug_in_the_child_shows_where_it_happened(self, tmp_path, monkeypatch, forking):
        load_domain = cli.load_domain

        def broken_source(path, *args):
            if path.endswith("source.tsv"):
                raise IndexError("list index out of range")
            return load_domain(path, *args)

        monkeypatch.setattr(cli, "load_domain", broken_source)
        path = self.config(tmp_path, ingest_lines("s", 0), ingest_lines("t", 1))
        with pytest.raises(IndexError, match="list index out of range") as info:
            main(["train", "--config", path, "--out", str(tmp_path / "out")])
        assert "in broken_source" in str(info.value.__cause__)

    def test_small_files_load_inline(self, tmp_path, no_fork):
        cfg = load_config(self.config(tmp_path, ingest_lines("s", 0), ingest_lines("t", 1)))
        sizes = [os.path.getsize(p) for p in (cfg.source_path, cfg.target_path)]
        assert sum(sizes) < params._FORK_BYTES_MIN
        assert build_data(cfg, 0).target.n_users > 0


@pytest.fixture(scope="module")
def single_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("single")
    cfg = tiny_cfg(out)
    wrapper = run_single(cfg, "cdr-vug", 0, str(out))
    return cfg, wrapper, out


class TestRunSingle:
    def test_wrapper_fields(self, single_run):
        cfg, wrapper, _ = single_run
        assert wrapper["mode"] == "cdr-vug"
        assert wrapper["seed"] == 0
        assert wrapper["lambda_effective"] == cfg.train.lam
        rows = wrapper["report"]["rows"]
        assert {(r["metric"], r["K"]) for r in rows} == {
            ("hr", 5),
            ("hr", 10),
            ("ndcg", 5),
            ("ndcg", 10),
        }

    def test_report_file_matches_return_value(self, single_run):
        _, wrapper, out = single_run
        loaded = json.loads((out / "report_cdr-vug_0.json").read_text())
        assert loaded == json.loads(json.dumps(wrapper))

    def test_trainlog_is_parseable_jsonl(self, single_run):
        cfg, _, out = single_run
        lines = (out / "trainlog_cdr-vug_0.jsonl").read_text().splitlines()
        rows = [json.loads(line) for line in lines]
        assert {r["kind"] for r in rows} <= {"step", "epoch", "eval"}
        epochs = [r for r in rows if r["kind"] == "epoch"]
        assert len(epochs) == cfg.train.epochs

    def test_group_gap_is_recomputable(self, single_run):
        _, wrapper, _ = single_run
        for row in wrapper["report"]["rows"]:
            if row["overlap"] is not None and row["nonoverlap"] is not None:
                assert row["ugf"] == pytest.approx(
                    abs(row["overlap"] - row["nonoverlap"]), abs=1e-12
                )

    def test_target_only_disables_cross_domain_flow(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        wrapper = run_single(cfg, "target-only", 0, str(tmp_path))
        assert wrapper["lambda_effective"] == 0.0
        assert "lambda=0" in wrapper["provenance"]

    def test_attention_dump(self, tmp_path):
        """Every dumped (user, weight) is the top-10 of the mixed attention
        row of a rebuilt trainer; gamma1 strictly inside (0, 1) tells the
        mixed row from either channel's own weights.
        """
        cfg = tiny_cfg(tmp_path, train=tiny_train(gamma1=0.3))
        run_single(cfg, "cdr-vug", 1, str(tmp_path), dump_attention=True)
        dump = json.loads((tmp_path / "attention_cdr-vug_1.json").read_text())
        cross = build_data(cfg, seed=1)
        split_src, split_tgt = prepare_splits(cross, seed=1)
        trainer = Trainer(
            cross, split_src, split_tgt, dataclasses.replace(cfg.train, mode=CDR_VUG, seed=1)
        )
        trainer.fit()
        non = cross.target_nonoverlap[:50]
        _, cache = forward_users(
            trainer.gen, non, cross, trainer.store.get(TGT_USER), trainer.store.get(SRC_USER),
            trainer.profiles, trainer.profile_valid, need_cache=True,
        )
        assert [d["user"] for d in dump] == non.tolist()
        for d, alpha in zip(dump, cache.alpha):
            top = np.argsort(-alpha, kind="stable")[:10]
            want = [[int(cross.overlap_tgt[j]), float(alpha[j])] for j in top]
            assert d["top_alpha"] == want
            assert 0.0 < sum(w for _, w in d["top_alpha"]) <= 1.0 + 1e-9

    def test_reports_are_byte_identical_across_runs(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        run_single(cfg, "cdr", 0, str(tmp_path / "a"))
        run_single(cfg, "cdr", 0, str(tmp_path / "b"))
        a = (tmp_path / "a" / "report_cdr_0.json").read_bytes()
        b = (tmp_path / "b" / "report_cdr_0.json").read_bytes()
        assert a == b


def fake_wrapper(all_, ov, non):
    ugf = None if ov is None or non is None else abs(ov - non)
    return {
        "report": {
            "rows": [
                {
                    "metric": "hr",
                    "K": 10,
                    "all": all_,
                    "overlap": ov,
                    "nonoverlap": non,
                    "ugf": ugf,
                }
            ]
        }
    }


class TestSummaries:
    def test_summarize_means_and_stds(self):
        results = {
            "cdr": [fake_wrapper(0.2, 0.3, 0.1), fake_wrapper(0.4, 0.5, 0.3)],
            "cdr-vug": [fake_wrapper(0.25, 0.3, 0.2), fake_wrapper(0.35, 0.4, 0.3)],
        }
        s = summarize(results)
        cell = s["cdr"]["hr@10"]["all"]
        assert cell["mean"] == pytest.approx(0.3)
        assert cell["std"] == pytest.approx(0.1)
        assert cell["per_seed"] == [0.2, 0.4]
        assert s["cdr"]["hr@10"]["ugf"]["mean"] == pytest.approx(0.2)
        assert s["cdr-vug"]["hr@10"]["ugf"]["mean"] == pytest.approx(0.1)

    def test_summarize_propagates_missing_groups(self):
        results = {"cdr": [fake_wrapper(0.2, None, 0.1), fake_wrapper(0.4, 0.5, 0.3)]}
        s = summarize(results)
        assert s["cdr"]["hr@10"]["overlap"] is None
        assert s["cdr"]["hr@10"]["ugf"] is None
        assert s["cdr"]["hr@10"]["all"]["mean"] == pytest.approx(0.3)

    def test_comparison_table_hand_values(self):
        results = {
            "cdr": [fake_wrapper(0.2, 0.3, 0.1), fake_wrapper(0.4, 0.5, 0.3)],
            "cdr-vug": [fake_wrapper(0.25, 0.3, 0.2), fake_wrapper(0.35, 0.4, 0.3)],
        }
        comp = comparison_table(summarize(results))
        (row,) = comp["rows"]
        assert row["metric"] == "hr@10"
        assert row["accuracy_without_vug"] == pytest.approx(0.3)
        assert row["accuracy_with_vug"] == pytest.approx(0.3)
        assert row["accuracy_abs_delta"] == pytest.approx(0.0)
        assert row["ugf_abs_reduction"] == pytest.approx(0.1)
        assert row["ugf_rel_reduction_pct"] == pytest.approx(50.0)
        assert comp["accuracy_improvement_pct"] == pytest.approx(0.0)
        assert comp["fairness_improvement_pct"] == pytest.approx(50.0)
        assert comp["fairness_improvement_abs"] == pytest.approx(0.1)

    def test_comparison_table_skips_ugf_when_missing(self):
        results = {
            "cdr": [fake_wrapper(0.2, None, 0.1)],
            "cdr-vug": [fake_wrapper(0.3, None, 0.2)],
        }
        comp = comparison_table(summarize(results))
        assert "ugf_without_vug" not in comp["rows"][0]
        assert comp["fairness_improvement_pct"] is None
        assert comp["accuracy_improvement_abs"] == pytest.approx(0.1)

    def test_comparison_table_requires_both_modes(self):
        comp = comparison_table({"cdr": {}})
        assert "cdr-vug" in comp["note"]


class TestRunExperiment:
    def test_artifact_layout_and_summary(self, tmp_path):
        cfg = tiny_cfg(
            tmp_path,
            modes=["cdr", "cdr-vug"],
            seeds=[0, 1],
            train=tiny_train(epochs=1),
        )
        out = run_experiment(cfg)
        for mode in ("cdr", "cdr-vug"):
            for seed in (0, 1):
                assert (tmp_path / f"report_{mode}_{seed}.json").exists()
                assert (tmp_path / f"trainlog_{mode}_{seed}.jsonl").exists()
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert set(summary) == {"cdr", "cdr-vug"}
        assert len(summary["cdr"]["hr@10"]["all"]["per_seed"]) == 2
        comparison = json.loads((tmp_path / "comparison.json").read_text())
        assert comparison == json.loads(json.dumps(out["comparison"]))
        assert {r["metric"] for r in comparison["rows"]} == {
            "hr@5",
            "hr@10",
            "ndcg@5",
            "ndcg@10",
        }
        meta = json.loads((tmp_path / "run_meta.json").read_text())
        assert meta["seconds"] >= 0.0

    def test_modes_of_a_seed_share_one_data_build(self, tmp_path, monkeypatch):
        """Two modes trained on one build of each seed's data and splits
        write the reports of runs that each built their own."""
        modes, seeds = ["cdr", "cdr-vug", "knn-vug"], [0, 3]
        cfg = tiny_cfg(tmp_path / "shared", modes=modes, seeds=seeds)
        builds = count_builds(monkeypatch)
        run_experiment(cfg)
        assert builds == seeds
        for seed in seeds:
            for mode in modes:
                run_single(cfg, mode, seed, str(tmp_path / "separate"))
        assert builds == seeds + [s for s in seeds for _ in modes]
        shared = comparable_artifacts(tmp_path / "shared")
        assert len(shared) == 2 * len(modes) * len(seeds)
        assert shared == comparable_artifacts(tmp_path / "separate")

    def test_run_meta_explains_the_run(self, tmp_path):
        cfg = tiny_cfg(tmp_path, modes=["cdr-vug"], train=tiny_train(epochs=1))
        run_experiment(cfg)
        meta = json.loads((tmp_path / "run_meta.json").read_text())
        assert set(meta) == {"seconds", "finished_unix", "config", "python", "numpy", "threads"}
        assert meta["config"] == json.loads(json.dumps(dataclasses.asdict(cfg)))
        assert meta["config"]["train"]["epochs"] == 1
        # the config's tuples are written as JSON lists
        assert (meta["config"]["modes"], meta["config"]["seeds"]) == (["cdr-vug"], [0])
        assert meta["python"] == platform.python_version()
        assert meta["numpy"] == np.__version__
        assert meta["threads"] in (1, 2)
        # environment and timing stay out of the byte-identical report
        report = json.loads((tmp_path / "report_cdr-vug_0.json").read_text())
        assert set(report) == {"mode", "seed", "lambda_effective", "report"}


def count_builds(monkeypatch) -> list:
    """Record the seed of every `cli.build_data` call."""
    seeds = []
    build = cli.build_data

    def counted(cfg, seed):
        seeds.append(seed)
        return build(cfg, seed)

    monkeypatch.setattr(cli, "build_data", counted)
    return seeds


def comparable_artifacts(out_dir) -> dict:
    """Report bytes and trainlog rows without their timing keys, by name."""
    out = {}
    for path in sorted(out_dir.glob("report_*")):
        out[path.name] = path.read_bytes()
    for path in sorted(out_dir.glob("trainlog_*")):
        rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        out[path.name] = [
            {k: v for k, v in row.items() if k not in ("seconds", "gen_seconds")} for row in rows
        ]
    return out


class TestGridSearch:
    def test_tiny_grid(self, tmp_path, monkeypatch):
        cfg = tiny_cfg(tmp_path, train=tiny_train(epochs=1, eval_every=1))
        builds = count_builds(monkeypatch)
        best, table = grid_search(cfg, [0.3, 0.7], [0.9])
        assert builds == [0]  # one data build serves every grid point
        assert best in {(0.3, 0.9), (0.7, 0.9)}
        assert [(r["gamma1"], r["gamma2"]) for r in table] == [(0.3, 0.9), (0.7, 0.9)]
        assert all(np.isfinite(r["val_ndcg10"]) for r in table)
        with open(tmp_path / "grid.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert set(rows[0]) == {"gamma1", "gamma2", "val_ndcg10"}
        assert float(rows[0]["gamma1"]) == 0.3

    def test_grid_validation(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        with pytest.raises(ConfigError, match="non-empty"):
            grid_search(cfg, [], [0.5])
        with pytest.raises(ConfigError, match=r"\[0, 1\]"):
            grid_search(cfg, [0.5], [1.2])


# tiny interaction files: up to 4 users over 12 items (a user needs 10
# positives for a test item), repeated and low-rated rows, and at times one
# malformed line
_fuzz_row_tail = st.tuples(
    st.sampled_from(["5", "5", "4", "3.0", "1"]), st.sampled_from([None, "", "7", "3"])
).map(lambda t: t[:1] if t[1] is None else t)
_bad_rows = st.sampled_from(
    [("u0",), ("", "i0", "5"), ("u0", "i0", "abc"), ("u0", "i0", "inf"),
     ("u0", "i0", "5", "x"), ("u0", "i0", "5", str(2**63))]
)


@st.composite
def _fuzz_files(draw):
    delimiter = draw(st.sampled_from(["\t", ","]))
    items = st.sets(st.integers(0, 11), max_size=4) | st.sets(st.integers(0, 11), min_size=10)
    rows = [
        (f"u{u}", f"i{i}") + draw(_fuzz_row_tail)
        for u in range(draw(st.integers(1, 4)))
        for i in sorted(draw(items))
    ]
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    rows = draw(st.permutations(rows))
    if draw(st.sampled_from([False, False, False, True])):  # one file in four
        rows.insert(draw(st.integers(0, len(rows))), draw(_bad_rows))
    return "".join(delimiter.join(r) + "\n" for r in rows)


class TestMainCli:
    def test_synth_writes_files_and_exits_zero(self, tmp_path, capsys):
        path = write_cfg(tmp_path)
        out = tmp_path / "data"
        assert main(["synth", "--config", path, "--out", str(out)]) == 0
        assert (out / "source.tsv").exists()
        assert (out / "target.tsv").exists()
        assert (out / "stats.json").exists()
        assert "wrote synthetic data" in capsys.readouterr().out

    def test_synth_with_a_file_config_exits_two(self, tmp_path, capsys):
        write_synth_tsv(synth_cdr(tiny_spec()), str(tmp_path))
        path = write_cfg(
            tmp_path, synthetic=None,
            source_path=str(tmp_path / "source.tsv"), target_path=str(tmp_path / "target.tsv"),
        )
        out = tmp_path / "data"
        assert main(["synth", "--config", path, "--out", str(out)]) == 2
        assert "synthetic spec" in capsys.readouterr().err
        assert not out.exists()

    def test_synth_honours_max_users(self, tmp_path):
        out = tmp_path / "data"
        path = write_cfg(tmp_path)
        assert main(["synth", "--config", path, "--max-users", "20", "--out", str(out)]) == 0
        stats = json.loads((out / "stats.json").read_text())
        assert [s["n_users"] for s in stats] == [20, 20]
        # of 30 users per domain, the 12 overlapping persons come first
        assert stats[1]["overlap_ratio"] == pytest.approx(12 / 20)

    def test_train_end_to_end(self, tmp_path, capsys):
        path = write_cfg(tmp_path)
        out = tmp_path / "runs"
        assert main(["train", "--config", path, "--out", str(out)]) == 0
        assert (out / "report_cdr_0.json").exists()
        assert (out / "summary.json").exists()
        printed = json.loads(capsys.readouterr().out)
        # a single-mode run cannot produce a with/without comparison
        assert "note" in printed

    def test_train_resume_path(self, tmp_path):
        path = write_cfg(tmp_path)
        cfg = load_config(path)
        cross = build_data(cfg, seed=0)
        split_src, split_tgt = prepare_splits(cross, seed=0)
        trainer = Trainer(
            cross, split_src, split_tgt, dataclasses.replace(cfg.train, mode=CDR, seed=0)
        )
        ckpt = str(tmp_path / "start.npz")
        trainer.store.save(ckpt)
        out = tmp_path / "resumed"
        code = main(["train", "--config", path, "--resume", ckpt, "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report_resumed.json").read_text())
        assert report["rows"]

    def test_eval_restores_checkpoint(self, tmp_path, capsys):
        path = write_cfg(tmp_path)
        cfg = load_config(path)
        cross = build_data(cfg, seed=0)
        split_src, split_tgt = prepare_splits(cross, seed=0)
        trainer = Trainer(
            cross, split_src, split_tgt, dataclasses.replace(cfg.train, mode=CDR, seed=0)
        )
        ckpt = str(tmp_path / "ck.npz")
        trainer.store.save(ckpt)
        out = tmp_path / "eval"
        code = main(["eval", "--config", path, "--checkpoint", ckpt, "--out", str(out)])
        assert code == 0
        assert (out / "report_eval.json").exists()
        printed = json.loads(capsys.readouterr().out)
        assert {r["metric"] for r in printed["rows"]} == {"hr", "ndcg"}

    def test_bad_config_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"bogus": 1}), encoding="utf-8")
        assert main(["train", "--config", str(bad)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_values_exit_two(self, tmp_path, capsys):
        path = write_cfg(tmp_path, train={"epochs": -3})
        assert main(["train", "--config", path]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "over",
        [
            {"ks": [0]},
            {"ks": []},
            {"ks": [10, 2.5]},
            {"ks": [True]},
            {"seeds": 5},
            {"seeds": [0, "1"]},
            {"seeds": [1.0]},
        ],
    )
    def test_bad_ks_or_seeds_exit_two_before_training(self, tmp_path, capsys, over):
        out = tmp_path / "out"
        path = write_cfg(tmp_path, **over)
        assert main(["train", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and ("ks" in err or "seeds" in err)
        assert not out.exists()

    @pytest.mark.parametrize(
        "over, field",
        [
            ({"train": {"epochs": "ten"}}, "epochs"),
            ({"train": {"epochs": True}}, "epochs"),
            ({"train": {"epochs": 2.0}}, "epochs"),
            ({"train": {"lam": "0.5"}}, "lam"),
            # not TrainConfig keys, so unknown-key errors whatever their value
            ({"train": {"detach_virtual": True}}, "detach_virtual"),
            ({"train": {"eval_ks": 10}}, "eval_ks"),
            ({"train": {"adam_main": {"lr": None}}}, "lr"),
            ({"train": {"adam_gen": 0.01}}, "adam_gen"),
            ({"synthetic": 5}, "synthetic"),
            ({"synthetic": {"noise": [0.1]}}, "noise"),
            ({"modes": "cdr"}, "modes"),
            ({"out_dir": 5}, "out_dir"),
            ({"max_users": "10"}, "max_users"),
            # not a SyntheticCdrSpec key, so an unknown-key error
            ({"synthetic": {"identical_transforms": 1}}, "identical_transforms"),
            # a file that is not one JSON object is the whole (non-dict) value
            *(
                pytest.param(raw, "ExperimentConfig must be a JSON object", id=f"top-level-{name}")
                for name, raw in [
                    ("int", 5), ("null", None), ("list", []),
                    ("pairs", [["seeds", [1]]]), ("string", "x"),
                ]
            ),
            # validation ranks at evaluate's default ks, which no key changes
            pytest.param({"train": {"eval_ks": [10, 0]}}, "eval_ks", id="eval-ks-zero"),
            pytest.param({"train": {"eval_ks": [10, 2.5]}}, "eval_ks", id="eval-ks-float"),
            # Adam's betas and eps are constants, not AdamConfig keys
            pytest.param({"train": {"adam_gen": {"eps": -1.0}}}, "eps", id="adam-eps-unknown-key"),
            pytest.param(
                {"train": {"adam_main": {"beta1": 0.9}}}, "['beta1']", id="adam-beta1-unknown-key"
            ),
            # the run sets these from `modes`/`seeds`, whatever their value
            pytest.param({"train": {"mode": "cdr-vug"}}, "--mode", id="train-mode"),
            pytest.param({"train": {"mode": "xyz"}}, "--mode", id="train-mode-invalid"),
            pytest.param({"train": True}, "train: expected", id="train-not-an-object"),
            pytest.param({"synthetic": True}, "synthetic: expected", id="synthetic-not-an-object"),
            pytest.param(
                {"train": {"mode": "CDR_VUG", "seed": 12345}}, "--mode", id="train-mode-and-seed"
            ),
            pytest.param({"train": {"seed": 12345}}, "--seed", id="train-seed"),
            pytest.param(
                {"synthetic": dict(tiny_cfg_dict()["synthetic"], seed=99)}, "--seed",
                id="synthetic-seed",
            ),
        ],
    )
    def test_bad_field_types_exit_two(self, tmp_path, capsys, over, field):
        out = tmp_path / "out"
        if isinstance(over, dict):
            path = write_cfg(tmp_path, **over)
        else:
            path = str(tmp_path / "cfg.json")
            (tmp_path / "cfg.json").write_text(json.dumps(over), encoding="utf-8")
        assert main(["train", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and field in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "over, field",
        [
            ({"train": {"adam_main": {"lr": float("nan")}}}, "lr"),
            ({"train": {"adam_gen": {"lr": -1.0}}}, "lr"),
            ({"train": {"adam_main": {"weight_decay": float("nan")}}}, "weight_decay"),
            ({"synthetic": dict(tiny_cfg_dict()["synthetic"], noise=float("nan"))}, "noise"),
            ({"k_core": 0}, "k_core"),
            ({"max_users": 0}, "max_users"),
        ],
    )
    def test_bad_numbers_exit_two_before_training(self, tmp_path, capsys, over, field):
        out = tmp_path / "out"
        path = write_cfg(tmp_path, **over)
        assert main(["train", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and field in err
        assert not out.exists()

    def test_max_users_applies_to_synthetic_data(self, tmp_path):
        out = tmp_path / "out"
        path = write_cfg(tmp_path)
        assert main(["train", "--config", path, "--max-users", "20", "--out", str(out)]) == 0
        counts = json.loads((out / "report_cdr_0.json").read_text())["report"]["counts"]
        # of 30 users per domain, the 12 overlapping persons come first
        assert counts == {
            "n_users_evaluated": 20, "n_overlap": 12, "n_nonoverlap": 8, "n_skipped": 0
        }

    def test_grid_without_validation_exits_two(self, tmp_path, capsys):
        path = write_cfg(tmp_path, train={"epochs": 1, "batch_size": 64, "d": 4, "eval_every": 0})
        out = tmp_path / "grid"
        assert main(["grid", "--config", path, "--grid-step", "0.5", "--out", str(out)]) == 2
        assert "eval_every" in capsys.readouterr().err
        assert not out.exists()

    def test_vug_mode_without_overlap_exits_two_before_any_run(self, tmp_path, capsys):
        """A mode that generates virtual rows needs overlapping users; a
        synthetic spec with none is rejected before the first mode runs."""
        syn = dict(tiny_cfg_dict()["synthetic"], n_source_users=20, n_target_users=20,
                   overlap_ratio=0.0)
        path = write_cfg(tmp_path, synthetic=syn, modes=["cdr", "cdr-vug"])
        out = tmp_path / "out"
        assert main(["train", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error: modes ['cdr-vug'] need overlapping users" in err
        assert not out.exists()

    def test_grid_without_overlap_exits_two_before_training(self, tmp_path, capsys, monkeypatch):
        """Every grid point trains cdr-vug, so a synthetic spec with no
        overlapping users is a config error even when `modes` has no VUG
        mode."""
        syn = dict(tiny_cfg_dict()["synthetic"], n_source_users=20, n_target_users=20,
                   overlap_ratio=0.0)
        path = write_cfg(tmp_path, synthetic=syn, modes=["cdr"])
        builds = count_builds(monkeypatch)
        out = tmp_path / "grid"
        assert main(["grid", "--config", path, "--grid-step", "0.5", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error: grid search trains cdr-vug, which needs overlapping users" in err
        assert builds == [] and not out.exists()

    def test_validation_without_positives_exits_three_before_training(self, tmp_path, capsys):
        """Nine interactions per user leave no validation positive at the
        0.1 ratio; with eval_every > 0 the run fails before its first epoch."""
        syn = dict(tiny_cfg_dict()["synthetic"], n_source_users=20, n_target_users=20,
                   interactions_per_user=9)
        train = {"epochs": 4, "batch_size": 64, "d": 4, "eval_every": 2}
        path = write_cfg(tmp_path, synthetic=syn, train=train)
        out = tmp_path / "out"
        assert main(["train", "--config", path, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "runtime failure in train: eval_every=2" in err and "Traceback" not in err
        assert not list(out.glob("trainlog_*"))

    def test_saturated_user_exits_three(self, tmp_path, capsys):
        """A user whose train positives cover every item has no negative to
        draw; the run fails at once instead of sampling forever."""
        # source: each user skips one of six items, so negatives exist
        src = [f"p{u}\ts{i}\t5.0" for u in range(6) for i in range(6) if i != u]
        # target: every user rated all five items, all of them kept for train
        tgt = [f"p{u}\tt{i}\t5.0" for u in range(6) for i in range(5)]
        (tmp_path / "src.tsv").write_text("\n".join(src) + "\n", encoding="utf-8")
        (tmp_path / "tgt.tsv").write_text("\n".join(tgt) + "\n", encoding="utf-8")
        path = write_cfg(
            tmp_path,
            synthetic=None,
            source_path=str(tmp_path / "src.tsv"),
            target_path=str(tmp_path / "tgt.tsv"),
        )
        assert main(["train", "--config", path, "--out", str(tmp_path / "out")]) == 3
        assert "no eligible negative item" in capsys.readouterr().err

    def test_a_byte_order_mark_changes_no_report(self, tmp_path):
        """A source file that starts with a UTF-8 byte order mark trains to
        the same report as without it: its first user, an overlapping one,
        keeps its id and so its overlap."""
        write_synth_tsv(synth_cdr(tiny_spec()), str(tmp_path))
        src = tmp_path / "source.tsv"
        (tmp_path / "bom.tsv").write_bytes(b"\xef\xbb\xbf" + src.read_bytes())
        reports = []
        for name in ("source.tsv", "bom.tsv"):
            out = tmp_path / name.replace(".", "_")
            path = write_cfg(
                tmp_path, synthetic=None, k_core=1,
                source_path=str(tmp_path / name), target_path=str(tmp_path / "target.tsv"),
            )
            assert main(["train", "--config", path, "--out", str(out)]) == 0
            reports.append((out / "report_cdr_0.json").read_bytes())
        assert reports[0] == reports[1]

    def test_bytes_that_are_not_utf8_exit_three_naming_file_and_line(self, tmp_path, capsys):
        write_synth_tsv(synth_cdr(tiny_spec()), str(tmp_path))
        tgt = tmp_path / "target.tsv"
        lines = tgt.read_bytes().split(b"\n")
        lines[4] = lines[4].replace(b"\t", b"\xe9\t", 1)  # a Latin-1 byte in an id
        tgt.write_bytes(b"\n".join(lines))
        path = write_cfg(
            tmp_path, synthetic=None,
            source_path=str(tmp_path / "source.tsv"), target_path=str(tgt),
        )
        assert main(["train", "--config", path, "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert f"runtime failure in train: line 5: byte 0xe9 is not UTF-8 (in {tgt})" in err
        assert "Traceback" not in err

    def test_out_of_range_grid_exits_two(self, tmp_path, capsys):
        path = write_cfg(tmp_path)
        out = tmp_path / "grid"
        code = main(
            ["grid", "--config", path, "--grid-step", "0.6", "--out", str(out)]
        )
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, train, code",
        [
            (["infolab", "--sweep", "-1"], None, 2),
            (["infolab", "--seed", "-1", "--sweep", "2"], None, 2),
            (["grid", "--config", "{cfg}", "--grid-step", "0"], None, 2),
            (["grid", "--config", "{cfg}", "--grid-step", "nan"], None, 2),
            # 1 / 5e-324 overflows to inf; 1e-300 would ask for ~10^300 values
            (["grid", "--config", "{cfg}", "--grid-step", "5e-324"], None, 2),
            (["grid", "--config", "{cfg}", "--grid-step", "1e-300"], None, 2),
            (["grid", "--config", "{cfg}", "--grid-step", "0.0099"], None, 2),
            (["synth", "--config", "{cfg}", "--seed", "-1"], None, 2),
            (["train", "--config", "{cfg}", "--seed", "-1"], None, 2),
            (["train", "--config", "{cfg}", "--gamma1", "1.5"], None, 2),
            (["train", "--config", "{cfg}", "--max-users", "0"], None, 2),
            (["train", "--config", "{cfg}"], {"super_sample": -1}, 2),
            (["train", "--config", "{cfg}"], None, 3),
            (["synth", "--config", "{cfg}"], None, 3),
            (["infolab"], None, 3),
        ],
        ids=[
            "infolab-negative-sweep",
            "infolab-negative-seed",
            "grid-zero-step",
            "grid-nan-step",
            "grid-subnormal-step",
            "grid-tiny-step",
            "grid-step-below-bound",
            "synth-negative-seed",
            "train-negative-seed",
            "train-gamma1-above-one",
            "train-zero-max-users",
            "train-negative-super-sample",
            "train-out-is-a-file",
            "synth-out-is-a-file",
            "infolab-out-is-a-file",
        ],
    )
    def test_hostile_arguments_exit_cleanly(self, tmp_path, capsys, argv, train, code):
        """Bad values exit 2 before any output is written; the exit-3 cases
        name an existing file as --out. Neither prints a traceback."""
        out = tmp_path / "out"
        if code == 3:
            out.write_text("", encoding="utf-8")
        cfg = write_cfg(tmp_path, **({"train": train} if train else {}))
        argv = [cfg if a == "{cfg}" else a for a in argv] + ["--out", str(out)]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert ("config error" if code == 2 else "runtime failure") in err
        assert out.is_file() if code == 3 else not out.exists()

    def test_grid_step_bound_is_101_values_per_axis(self, tmp_path, monkeypatch):
        """The finest accepted step, 0.01, gives 101 values per axis; finer
        steps exit 2 (above) before any grid is built."""
        grids = []

        def record(cfg, g1, g2):
            grids.append((g1, g2))
            return (0.0, 0.0), []

        monkeypatch.setattr(cli, "grid_search", record)
        assert main(["grid", "--config", write_cfg(tmp_path), "--grid-step", "0.01"]) == 0
        ((g1, g2),) = grids
        assert g1 == g2 and len(g1) == 101
        assert (g1[0], g1[1], g1[-1]) == (0.0, 0.01, 1.0)

    def test_malformed_interaction_file_exits_three(self, tmp_path, capsys):
        (tmp_path / "source.tsv").write_text("u0\ti0\t5\nu1\ti1\tabc\n", encoding="utf-8")
        (tmp_path / "target.tsv").write_text("u0\ti0\t5\n", encoding="utf-8")
        path = write_cfg(
            tmp_path, synthetic=None,
            source_path=str(tmp_path / "source.tsv"), target_path=str(tmp_path / "target.tsv"),
        )
        assert main(["train", "--config", path, "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "runtime failure in train: line 2: bad rating 'abc'" in err
        assert "Traceback" not in err

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        source=_fuzz_files(),
        target=_fuzz_files(),
        k_core=st.integers(1, 2),
        mode=st.sampled_from(sorted(cli.MODE_MAP)),
    )
    def test_train_on_random_files_exits_cleanly(self, tmp_path_factory, source, target, k_core, mode):
        """`vuglab train` on random tiny interaction files exits 0, 2 or 3,
        never with a traceback; a malformed file exits 3 with the loader's
        message, which names the line."""
        tmp = tmp_path_factory.mktemp("fuzz")
        paths = []
        for name, text in (("source", source), ("target", target)):
            paths.append(str(tmp / f"{name}.tsv"))
            (tmp / f"{name}.tsv").write_text(text, encoding="utf-8")
        cfg = write_cfg(
            tmp, synthetic=None, source_path=paths[0], target_path=paths[1], k_core=k_core,
            modes=[mode], train={"epochs": 1, "batch_size": 8, "d": 2, "eval_every": 1},
        )
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["train", "--config", cfg, "--out", str(tmp / "out")])
        assert code in (0, 2, 3), err.getvalue()
        assert "Traceback" not in err.getvalue()
        assert "embedding table" not in err.getvalue()
        for path in paths:
            try:
                load_interactions(path)
            except ParseError as exc:
                assert code == 3 and f"runtime failure in train: {exc}" in err.getvalue()
                assert str(exc).startswith("line ") or "delimiter" in str(exc)
                break

    @pytest.mark.parametrize(
        "source_lines",
        [["u0\ti0\t2.5", "u1\ti1\t1.0", "u0\ti1\t2.9"], []],
        ids=["all-ratings-below-threshold", "empty-file"],
    )
    def test_empty_domain_exits_three_naming_it(self, tmp_path, capsys, source_lines):
        source = "".join(f"{line}\n" for line in source_lines)
        (tmp_path / "source.tsv").write_text(source, encoding="utf-8")
        tgt = [f"u{u}\tt{i}\t5" for u in range(3) for i in range(3)]
        (tmp_path / "target.tsv").write_text("\n".join(tgt) + "\n", encoding="utf-8")
        path = write_cfg(
            tmp_path, synthetic=None, k_core=1,
            source_path=str(tmp_path / "source.tsv"), target_path=str(tmp_path / "target.tsv"),
        )
        assert main(["train", "--config", path, "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert (
            "runtime failure in train: the source domain has no interactions left after "
            "rating_threshold=3.0, k_core=1, max_users=None"
        ) in err
        assert "embedding table" not in err and "Traceback" not in err

    def test_missing_checkpoint_exits_three(self, tmp_path, capsys):
        path = write_cfg(tmp_path)
        code = main(
            [
                "eval",
                "--config",
                path,
                "--checkpoint",
                str(tmp_path / "nope.npz"),
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 3
        assert "runtime failure in eval" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "exc",
        [
            ValueError("bad value"),
            ParseError("line 3: bad rating"),
            json.JSONDecodeError("Expecting value", "x", 0),
            UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte"),
            OSError("disk full"),
            RuntimeError("training diverged"),
            MemoryError("cannot allocate"),
        ],
        ids=lambda exc: type(exc).__name__,
    )
    def test_expected_failures_exit_three(self, tmp_path, capsys, monkeypatch, exc):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "run_experiment", fail)
        path = write_cfg(tmp_path)
        assert main(["train", "--config", path, "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("runtime failure in train: ") and "Traceback" not in err

    def test_a_bug_escapes_main_with_its_traceback(self, tmp_path, monkeypatch):
        """Only the failures a run can expect exit 3; any other exception
        is a bug and propagates out of `main`."""

        def fail(*args, **kwargs):
            raise IndexError("list index out of range")

        monkeypatch.setattr(cli, "run_experiment", fail)
        path = write_cfg(tmp_path)
        with pytest.raises(IndexError, match="list index out of range"):
            main(["train", "--config", path, "--out", str(tmp_path / "out")])

    def test_infolab_default_demo(self, tmp_path, capsys):
        out = tmp_path / "info"
        assert main(["infolab", "--out", str(out)]) == 0
        report = json.loads((out / "infolab_report.json").read_text())
        assert report["overlapping"]["h_cond"] == pytest.approx(
            BSC_H_COND, abs=1e-12
        )
        printed = json.loads(capsys.readouterr().out)
        assert set(printed) >= {"overlapping", "nonoverlapping"}

    def test_infolab_spec_file(self, tmp_path):
        spec = {
            "prior": [0.6, 0.4],
            "p_s": [[1.0, 0.0], [0.0, 1.0]],
            "p_t": [[1.0, 0.0], [0.0, 1.0]],
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        out = tmp_path / "info"
        code = main(["infolab", "--spec", str(spec_path), "--out", str(out)])
        assert code == 0
        report = json.loads((out / "infolab_report.json").read_text())
        # noiseless channels: shared observation pins the latent down
        assert report["overlapping"]["h_cond"] == pytest.approx(0.0, abs=1e-12)
        assert report["overlapping"]["bayes_error"] == pytest.approx(0.0, abs=1e-12)

    def test_infolab_missing_spec_exits_two(self, tmp_path, capsys):
        code = main(["infolab", "--spec", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert code == 2
        assert "config error: cannot read spec" in capsys.readouterr().err

    def test_infolab_invalid_json_spec_exits_two(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text('{"prior": [0.5, 0.5', encoding="utf-8")
        code = main(["infolab", "--spec", str(spec_path), "--out", str(tmp_path)])
        assert code == 2
        assert "config error: cannot read spec" in capsys.readouterr().err

    def test_infolab_prior_not_summing_to_one_exits_two(self, tmp_path, capsys):
        spec = {"prior": [0.6, 0.6], "p_s": [[1.0, 0.0], [0.0, 1.0]], "p_t": [[1.0, 0.0], [0.0, 1.0]]}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        code = main(["infolab", "--spec", str(spec_path), "--out", str(tmp_path / "info")])
        assert code == 2
        assert "prior rows must sum to 1" in capsys.readouterr().err
        assert not (tmp_path / "info").exists()

    @pytest.mark.parametrize("field", ["prior", "p_s"])
    def test_infolab_non_finite_spec_exits_two(self, tmp_path, capsys, field):
        spec = {"prior": [0.5, 0.5], "p_s": [[1.0, 0.0], [0.0, 1.0]], "p_t": [[1.0, 0.0], [0.0, 1.0]]}
        spec[field] = [float("nan"), float("nan")] if field == "prior" else [[float("nan"), 1.0], [0.0, 1.0]]
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        code = main(["infolab", "--spec", str(spec_path), "--out", str(tmp_path / "info")])
        assert code == 2
        assert f"{field} has non-finite entries" in capsys.readouterr().err
        assert not (tmp_path / "info").exists()

    @pytest.mark.parametrize(
        "over, named",
        [
            ({"sed": 3}, "unknown ChannelSpec keys: ['sed']"),
            ({"prior": [True, False]}, "expected float, got True"),
            ({"n": 1.5}, "unknown ChannelSpec keys: ['n']"),
            ({"seed": float("inf")}, "unknown ChannelSpec keys: ['seed']"),
            ({"n": 100_000, "seed": 0}, "unknown ChannelSpec keys: ['n', 'seed']"),
        ],
        ids=["typo-key", "bool-prior", "float-n", "inf-seed", "sampler-keys"],
    )
    def test_infolab_hostile_spec_exits_two(self, tmp_path, capsys, over, named):
        """A spec file follows the config files' unknown-key and type rules;
        JSON's 1e400 reads as inf. The spec is exact, so the sample count
        `n` and sampler `seed` of older spec files are unknown keys."""
        spec = {"prior": [0.5, 0.5], "p_s": [[1.0, 0.0], [0.0, 1.0]], "p_t": [[1.0, 0.0], [0.0, 1.0]]}
        text = json.dumps({**spec, **over}).replace("Infinity", "1e400")
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(text, encoding="utf-8")
        code = main(["infolab", "--spec", str(spec_path), "--out", str(tmp_path / "info")])
        assert code == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "info").exists()

    def test_infolab_single_symbol_spec(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text('{"prior": [1], "p_s": [[1]], "p_t": [[1]]}', encoding="utf-8")
        assert main(["infolab", "--spec", str(spec_path), "--out", str(tmp_path / "info")]) == 0
        report = json.loads((tmp_path / "info" / "infolab_report.json").read_text())
        assert report["degenerate"] is True

    def test_repeated_modes_or_seeds_exit_two(self, tmp_path, capsys):
        out = tmp_path / "out"
        for over in ({"modes": ["cdr", "cdr"]}, {"seeds": [0, 0]}):
            path = write_cfg(tmp_path, **over)
            assert main(["train", "--config", path, "--out", str(out)]) == 2
            assert "must not repeat" in capsys.readouterr().err
        assert not out.exists()

    def test_synth_checks_the_config_it_synthesizes_from(self, tmp_path, capsys):
        """`synth` drops the file paths and builds from the spec; that
        config must be valid, so a VUG mode on a spec without overlap
        exits 2 even though the file config itself could run it."""
        syn = dict(tiny_cfg_dict()["synthetic"], overlap_ratio=0.0)
        path = write_cfg(
            tmp_path, synthetic=syn, modes=["cdr-vug"],
            source_path="source.tsv", target_path="target.tsv",
        )
        out = tmp_path / "data"
        assert main(["synth", "--config", path, "--out", str(out)]) == 2
        assert "need overlapping users" in capsys.readouterr().err
        assert not out.exists()

    def test_infolab_sweep_csv(self, tmp_path):
        out = tmp_path / "info"
        assert main(["infolab", "--out", str(out), "--sweep", "4", "--seed", "2"]) == 0
        with open(out / "infolab_sweep.csv", newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
            assert reader.fieldnames == [
                "n_z",
                "v_s",
                "v_t",
                "h_cond_overlapping",
                "h_cond_nonoverlapping",
                "bayes_overlapping",
                "bayes_nonoverlapping",
                "fano_overlapping",
                "fano_nonoverlapping",
            ]
        assert len(rows) == 4
        for row in rows:
            assert float(row["bayes_overlapping"]) <= float(
                row["bayes_nonoverlapping"]
            ) + 1e-9


def _old_json_checkpoint(store, path):
    """The JSON layout `ParameterStore.save` wrote before checkpoints were `.npz`."""
    snap = store.snapshot()
    blob = {
        "tensors": {
            name: {
                "shape": list(store.get(name).shape),
                "partition": store.partition_of(name),
                **{
                    field: snap[f"{store.partition_of(name)}/{part}/{name}"].ravel().tolist()
                    for field, part in (("data", "value"), ("m", "m"), ("v", "v"))
                },
            }
            for name in store.names()
        },
        "steps": dict(store.step_count),
    }
    with open(path, "w") as fh:
        json.dump(blob, fh)


class TestCheckpointContract:
    """A checkpoint that does not fit the configured model exits 3 with a
    message naming the problem, through `train --resume` and `eval
    --checkpoint` alike; it never trains or reports on the wrong model."""

    @staticmethod
    def _save(cfg_path, ckpt, mode="cdr", max_users=None, write=None):
        cfg = dataclasses.replace(load_config(cfg_path), max_users=max_users)
        trainer = cli._trainer(cfg, 0, cli.MODE_MAP[mode])
        if write is None:
            trainer.store.save(str(ckpt))
        else:
            write(trainer.store, str(ckpt))

    def _case(self, tmp_path, case):
        """(config path, checkpoint path, expected message parts)."""
        ckpt = tmp_path / "ckpt.npz"
        cfg = write_cfg(tmp_path)
        if case == "d16-to-d8":
            big = write_cfg(tmp_path, "big.json", train={"epochs": 1, "batch_size": 64, "d": 16})
            self._save(big, ckpt)
            cfg = write_cfg(tmp_path, train={"epochs": 1, "batch_size": 64, "d": 8})
            return cfg, ckpt, ["does not match this store", "float64 (20, 16), expected float64 (20, 8)"]
        if case == "50-users-to-60":
            syn = dict(tiny_cfg_dict()["synthetic"], n_source_users=60, n_target_users=60)
            cfg = write_cfg(tmp_path, synthetic=syn)
            self._save(cfg, ckpt, max_users=50)
            return cfg, ckpt, ["does not match this store", "'MAIN/"]
        if case == "cdr-to-cdr-vug":
            self._save(cfg, ckpt, mode="cdr")
            cfg = write_cfg(tmp_path, modes=["cdr-vug"])
            return cfg, ckpt, ["does not match this store: 'GEN/", "holds nothing"]
        if case == "ten-gen-names":
            # the GEN layout before the channels were stacked: one (d, d) or
            # (d,) tensor per channel and map
            self._save(cfg, ckpt, mode="cdr-vug")
            with np.load(ckpt) as npz:
                entries = {k: npz[k] for k in npz.files if not k.startswith("GEN/")}
                for part in ("value", "m", "v"):
                    for name in ("gen_wv", "gen_bv"):
                        entries[f"GEN/{part}/{name}"] = npz[f"GEN/{part}/{name}"]
                    for name in ("gen_wq", "gen_bq", "gen_wk", "gen_bk"):
                        for c, ch in enumerate(("user", "item")):
                            entries[f"GEN/{part}/{name}_{ch}"] = npz[f"GEN/{part}/{name}"][c]
            with open(ckpt, "wb") as fh:
                np.savez(fh, **entries)
            cfg = write_cfg(tmp_path, modes=["cdr-vug"])
            return cfg, ckpt, ["does not match this store: 'GEN/m/gen_bk' holds nothing"]
        if case == "truncated":
            self._save(cfg, ckpt)
            ckpt.write_bytes(ckpt.read_bytes()[:-100])
            return cfg, ckpt, ["not a vuglab .npz checkpoint"]
        if case == "old-json":
            self._save(cfg, ckpt, write=_old_json_checkpoint)
            return cfg, ckpt, ["not a vuglab .npz checkpoint"]
        assert case == "format-version"
        self._save(cfg, ckpt)
        with np.load(ckpt) as npz:
            entries = {k: npz[k] for k in npz.files}
        with open(ckpt, "wb") as fh:
            np.savez(fh, **dict(entries, format=np.array(99)))
        return cfg, ckpt, ["has format 99, expected 1"]

    @pytest.mark.parametrize(
        "case",
        [
            "d16-to-d8", "50-users-to-60", "cdr-to-cdr-vug", "ten-gen-names",
            "truncated", "old-json", "format-version",
        ],
    )
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_mismatched_checkpoint_exits_three(self, tmp_path, capsys, case, command):
        cfg, ckpt, parts = self._case(tmp_path, case)
        capsys.readouterr()
        flag = "--resume" if command == "train" else "--checkpoint"
        out = tmp_path / "out"
        assert main([command, "--config", cfg, flag, str(ckpt), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"runtime failure in {command}: " in err and "Traceback" not in err
        for part in parts:
            assert part in err
        assert not out.exists()

    def test_resume_with_dump_attention_exits_two(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["train", "--config", cfg, "--resume", "x.npz", "--dump-attention"])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err


class TestOverrides:
    @pytest.mark.parametrize(
        "command, flag",
        [
            ("synth", "--mode cdr"), ("synth", "--gamma1 0.5"), ("synth", "--gamma2 0.5"),
            ("synth", "--dump-attention"),
            ("eval", "--gamma2 0.5"), ("eval", "--dump-attention"),
            ("grid", "--mode cdr"), ("grid", "--gamma1 0.5"), ("grid", "--gamma2 0.5"),
            ("grid", "--dump-attention"),
        ],
    )
    def test_unused_overrides_are_rejected(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "--checkpoint", "c.npz", *flag.split()]
                                      if command == "eval" else [command, *flag.split()])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["synth", "--seed", "7", "--out", "o", "--max-users", "12"],
            ["eval", "--checkpoint", "c.npz", "--seed", "7", "--out", "o", "--max-users", "12",
             "--mode", "cdr-vug", "--gamma1", "0.25"],
            ["grid", "--seed", "7", "--out", "o", "--max-users", "12", "--grid-step", "0.5"],
        ],
        ids=["synth", "eval", "grid"],
    )
    def test_each_subcommand_applies_the_overrides_it_takes(self, tmp_path, argv):
        path = write_cfg(tmp_path)
        args = build_parser().parse_args(argv + ["--config", path])
        cfg = _apply_overrides(load_config(path), args)
        assert (cfg.seeds, cfg.out_dir, cfg.max_users) == ((7,), "o", 12)
        vug = argv[0] == "eval"
        assert cfg.modes == (("cdr-vug",) if vug else ("cdr",))
        assert (cfg.train.gamma1, cfg.train.gamma2) == ((0.25, 0.5) if vug else (0.5, 0.5))

    def test_cli_flags_override_config(self, tmp_path):
        path = write_cfg(tmp_path)
        args = build_parser().parse_args(
            [
                "train",
                "--config",
                path,
                "--seed",
                "7",
                "--mode",
                "cdr-vug",
                "--gamma1",
                "0.25",
                "--gamma2",
                "0.75",
                "--out",
                "elsewhere",
                "--max-users",
                "12",
            ]
        )
        cfg = _apply_overrides(load_config(path), args)
        assert cfg.seeds == (7,)
        assert cfg.modes == ("cdr-vug",)
        assert cfg.out_dir == "elsewhere"
        assert cfg.max_users == 12
        assert cfg.train.gamma1 == 0.25
        assert cfg.train.gamma2 == 0.75

    def test_absent_flags_leave_config_alone(self, tmp_path):
        path = write_cfg(tmp_path, seeds=[3])
        args = build_parser().parse_args(["train", "--config", path])
        cfg = _apply_overrides(load_config(path), args)
        assert cfg.seeds == (3,)
        assert cfg.modes == ("cdr",)


# Hostile JSON values: wrong types, non-finite and negative numbers,
# containers where scalars belong. Integers stay tiny, so a hostile value in
# a size field can never make a run slow.
_hostile = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -1e300]),
    st.integers(-3, 3),
    st.floats(-2.0, 2.0),
    st.lists(st.integers(-1, 3), max_size=3),
    st.dictionaries(st.sampled_from(["lr", "x"]), st.integers(-1, 2), max_size=2),
)


@st.composite
def _fuzz_config(draw):
    """A small config (users <= 40, items <= 30, d <= 4, epochs <= 2),
    then a few of its values replaced by hostile ones or unknown keys."""
    n_users = draw(st.integers(10, 40))
    cfg = {
        "synthetic": {
            "n_source_users": n_users,
            "n_target_users": draw(st.integers(10, n_users)),
            "overlap_ratio": draw(st.sampled_from([0.3, 0.0, 1.0])),
            "n_items_source": draw(st.integers(12, 30)),
            "n_items_target": draw(st.integers(12, 30)),
            "latent_dim": draw(st.integers(1, 4)),
            "interactions_per_user": 10,  # one validation and one test positive
            "noise": draw(st.sampled_from([0.0, 0.5])),
        },
        "modes": draw(st.sampled_from(
            [["cdr"], ["cdr-vug"], ["knn-vug"], ["target-only"], ["cdr", "knn-vug"], []]
        )),
        "train": {
            "epochs": draw(st.sampled_from([1, 2, 0])),
            "batch_size": draw(st.integers(16, 64)),
            "d": draw(st.integers(1, 4)),
            "eval_every": draw(st.sampled_from([1, 2, 0])),
            "warmup_epochs": draw(st.integers(0, 1)),
            "super_sample": draw(st.integers(0, 8)),
            "constrain_sample": draw(st.integers(2, 8)),
            "knn_neighbors": draw(st.integers(1, 3)),
            "adam_main": {"lr": 0.01},
        },
        "ks": [5, 10],
        "seeds": [0],
    }
    sections = {"": cfg, "synthetic": cfg["synthetic"], "train": cfg["train"],
                "adam_main": cfg["train"]["adam_main"]}
    # half the configs stay valid, so runs reach training and evaluation
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        where = draw(st.sampled_from(sorted(sections)))
        key = draw(st.sampled_from(sorted(sections[where]) + ["bogus", "mode", "seed"]))
        sections[where][key] = draw(_hostile)
    if draw(st.integers(0, 9)) == 9:
        return draw(st.sampled_from([[], [1], "cfg", 3, None]))
    return cfg


@st.composite
def _fuzz_spec(draw):
    """An infolab channel spec, valid or not, in the same hostile spirit."""
    spec = {
        "prior": [0.5, 0.5],
        "p_s": [[0.9, 0.1], [0.2, 0.8]],
        "p_t": [[0.7, 0.3], [0.4, 0.6]],
        "n": draw(st.integers(0, 100)),
        "seed": draw(st.integers(0, 3)),
    }
    for _ in range(draw(st.integers(0, 2))):
        spec[draw(st.sampled_from(sorted(spec) + ["bogus"]))] = draw(_hostile)
    if draw(st.integers(0, 9)) == 9:
        return draw(st.sampled_from([[], "spec", 1, None]))
    return spec


# flag values, mostly valid, so that most runs get past argparse
_number = st.sampled_from(["0", "1", "2", "7", "12", "20", "40", "-1", "1.5"])
_gamma = st.sampled_from(["0", "0.5", "1", "0.25", "0.75", "-0.1", "nan", "x"])
_grid_step = st.sampled_from(["0.5", "1", "0.6", "2", "0", "-1", "nan", "5e-324", "1e-300"])

# per subcommand, flag -> strategy for its value (None: a bare switch)
_FLAGS = {
    "synth": {"--seed": _number, "--max-users": _number},
    "train": {"--seed": _number, "--max-users": _number, "--gamma1": _gamma,
              "--gamma2": _gamma, "--mode": st.sampled_from(sorted(cli.MODE_MAP) + ["x"]),
              "--resume": st.sampled_from(["{junk}", "missing.npz"]), "--dump-attention": None},
    "eval": {"--seed": _number, "--max-users": _number, "--gamma1": _gamma,
             "--mode": st.sampled_from(sorted(cli.MODE_MAP))},
    "grid": {"--seed": _number, "--max-users": _number},
    "infolab": {"--seed": _number, "--sweep": st.integers(-1, 2).map(str)},
}


@st.composite
def _fuzz_argv(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command, "--out", "out"]
    # without a config file the default sizes apply, which train for minutes
    if command != "infolab":
        argv += ["--config", "{file}"]
    elif draw(st.integers(0, 4)):
        argv += ["--spec", "{file}"]
    if command == "eval":  # a required flag
        argv += ["--checkpoint", draw(st.sampled_from(["{junk}", "{ckpt}", "missing.npz"]))]
    if command == "grid":  # the default step, 0.1, would train 121 models
        argv += ["--grid-step", draw(_grid_step)]
    flags = _FLAGS[command]
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), unique=True, max_size=3)):
        argv += [flag] if flags[flag] is None else [flag, draw(flags[flag])]
    if draw(st.integers(0, 9)) == 9:
        argv.append("--bogus")
    return argv


class TestMainFuzz:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(argv=_fuzz_argv(), config=_fuzz_config(), spec=_fuzz_spec())
    # found by this fuzz: `train` used to exit 0 without running anything
    @example(argv=["train", "--out", "out", "--config", "{file}"],
             config=tiny_cfg_dict(modes=[]), spec={})
    def test_any_argv_exits_zero_two_or_three(self, tmp_path_factory, argv, config, spec):
        """Random argv over the five subcommands, with a hostile config or
        channel spec file: `main` returns 0, 2 or 3 (argparse exits 2) and
        never prints a traceback, and a `train` that exits 0 has written a
        report. It runs in a scratch directory, so relative paths stay
        there."""
        tmp = tmp_path_factory.mktemp("fuzz-main")
        payload = spec if argv[0] == "infolab" else config
        (tmp / "file.json").write_text(json.dumps(payload), encoding="utf-8")
        (tmp / "junk.npz").write_bytes(b"not a checkpoint")
        names = {"{file}": "file.json", "{junk}": "junk.npz", "{ckpt}": "ckpt.npz"}
        argv = [names.get(a, a) for a in argv]
        err = io.StringIO()
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                if "ckpt.npz" in argv:  # a checkpoint of this very model, where one can be built
                    with contextlib.suppress(Exception, SystemExit):
                        cfg = cli._load_cfg(build_parser().parse_args(argv))
                        trainer = cli._trainer(cfg, cfg.seeds[0], cli.MODE_MAP[cfg.modes[0]])
                        trainer.store.save("ckpt.npz")
                    err.seek(0)
                    err.truncate()
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
        finally:
            os.chdir(cwd)
        assert code in (0, 2, 3), (argv, payload, err.getvalue())
        assert "Traceback" not in err.getvalue(), (argv, payload, err.getvalue())
        if code == 0 and argv[0] == "train" and "--resume" not in argv:
            assert list((tmp / "out").glob("report_*.json")), ("no report", argv, payload)
