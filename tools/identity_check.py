#!/usr/bin/env python3
"""Check that `vuglab train`, `vuglab grid` and `vuglab infolab` write the
same artifacts as another commit.

    python3 tools/identity_check.py REV

Exports REV with `git archive` into a temporary directory, then runs
`vuglab train --dump-attention` from each tree's `src` (this checkout and
REV) with one BLAS thread, on six fixed configs: three small ones, all four
modes at seeds 0 and 7, once plain, once with `warmup_epochs` 1 and
`gen_every` 2, and once as `early-stop`, 16 epochs validated every epoch
with `patience` 2 and a larger MAIN learning rate, so that most runs stop
early and some restore an earlier snapshot and rebuild their virtual rows
from it; `default-d64`, the default synthetic sizes at d=64 for
cdr-vug and knn-vug, whose attention and Adam steps are large enough to run
on `run_pair`'s worker thread; `blocks`, 3,000 users and 1,000 items per
domain at d=8 for cdr and knn-vug, so that `evaluate` and `knn_generate`
rank several blocks and the top-N kernel runs across block boundaries;
and two configs read from the `source.tsv` and `target.tsv` that this
checkout's `vuglab synth` writes for them once, so that both trees also
run the file parser and the ingest stages on the same bytes: `files`,
the small config (about 2,600 lines a file, loaded inline), and
`files-blocks`, the `blocks` config (about 79,000 lines a file, above
`params.fork_pair`'s byte gate, so this checkout loads the source domain
in a forked child). Repeated lines are appended to both files
(`add_repeats`): timestamped, unstamped and tied lines of pairs already
in the file, with ratings on both sides of the threshold, so the row that
`dedupe` keeps decides whether the pair stays a positive. `files-blocks`
runs once more from this checkout in a child process pinned to one CPU,
where `run_pair` and `fork_pair` run everything inline; its files must
be byte-identical to the run on every CPU (`files-blocks-one-cpu`).
It runs `vuglab grid --grid-step 0.5` in both trees on the small config
with `modes` ["cdr-vug"] and `seeds` [0], nine grid points selected by
validation NDCG, whose `grid.csv` must be byte-identical. It also runs
`vuglab infolab` in both trees three ways: the built-in demo,
`--sweep 30 --seed 4`, and `--spec` on one fixed three-symbol channel
spec; their report and sweep files must be byte-identical.
Every report, summary, comparison and attention file must be byte-identical,
and every trainlog identical once its timing keys (`seconds`,
`gen_seconds`) are dropped; `run_meta.json` holds wall-clock time and the
environment and is skipped. Exits 0 when everything matches, else 1 after
naming each file that differs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMING_KEYS = ("seconds", "gen_seconds")

SMALL = {
    "modes": ["target-only", "cdr", "cdr-vug", "knn-vug"],
    "seeds": [0, 7],
    "ks": [10, 20],
    "synthetic": {
        "n_source_users": 200,
        "n_target_users": 200,
        "overlap_ratio": 0.3,
        "n_items_source": 60,
        "n_items_target": 60,
        "latent_dim": 8,
        "interactions_per_user": 10,
        "noise": 0.5,
    },
    "train": {
        "epochs": 6,
        "batch_size": 256,
        "d": 8,
        "eval_every": 2,
        "adam_main": {"lr": 0.01},
        "adam_gen": {"lr": 0.01},
    },
}
# a three-symbol latent with a binary target alphabet
CHANNEL_SPEC = {
    "prior": [0.5, 0.3, 0.2],
    "p_s": [[0.8, 0.1, 0.1], [0.2, 0.7, 0.1], [0.1, 0.2, 0.7]],
    "p_t": [[0.6, 0.4], [0.3, 0.7], [0.5, 0.5]],
}
CONFIGS = {
    "small": SMALL,
    "warmup": {**SMALL, "train": {**SMALL["train"], "warmup_epochs": 1, "gen_every": 2}},
    "early-stop": {
        **SMALL,
        "train": {**SMALL["train"], "epochs": 16, "eval_every": 1, "patience": 2,
                  "adam_main": {"lr": 0.05}},
    },
    "default-d64": {
        "modes": ["cdr-vug", "knn-vug"],
        "seeds": [0],
        "train": {"epochs": 2, "d": 64, "eval_every": 1},
    },
    # 1,000 items give 1,048-row ranking blocks (params.block_rows): evaluate
    # ranks ~3,000 users in three blocks, knn_generate 2,100 in two
    "blocks": {
        "modes": ["cdr", "knn-vug"],
        "seeds": [0],
        "synthetic": {
            "n_source_users": 3000,
            "n_target_users": 3000,
            "n_items_source": 1000,
            "n_items_target": 1000,
        },
        "train": {"epochs": 2, "d": 8, "eval_every": 1},
    },
}


# lines appended per repeated pair, one pattern per pair in turn: after the
# file's own unstamped line, a stamped line wins (a), a later line wins a
# tied timestamp (b, c), and the last unstamped line resets the choice (d, e)
REPEATS = (
    (("1.0", "5"),),
    (("1.0", "5"), ("4.0", "5")),
    (("4.0", "5"), ("1.0", "5")),
    (("1.0", "9"), ("4.0", "3"), ("2.0", "")),
    (("1.0", "9"), ("2.0", ""), ("4.0", "3")),
)


def add_repeats(path: Path) -> None:
    """Append to an interaction file repeated lines of every 7th line's
    (user, item) pair, each pair taking the next pattern of `REPEATS`; an
    empty timestamp is a 3-field line."""
    lines = path.read_text(encoding="utf-8").splitlines()
    out = []
    for n, line in enumerate(lines[::7]):
        user, item = line.split("\t")[:2]
        for rating, stamp in REPEATS[n % len(REPEATS)]:
            out.append("\t".join(filter(None, (user, item, rating, stamp))))
    with path.open("a", encoding="utf-8") as fh:
        fh.write("".join(f"{line}\n" for line in out))


def files_config(cfg: dict, data: Path) -> dict:
    """`cfg`, read from the interaction files `vuglab synth` wrote to `data`."""
    return {
        **{k: v for k, v in cfg.items() if k != "synthetic"},
        "source_path": str(data / "source.tsv"),
        "target_path": str(data / "target.tsv"),
    }


def pin_to_one_cpu() -> None:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_vuglab(tree: Path, *args: str, one_cpu: bool = False) -> str | None:
    """Run the `vuglab` command line from `tree`, pinned to one CPU if
    `one_cpu`; the failure message, or None."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "vuglab.cli", *args]
    proc = subprocess.run(
        argv, env=env, cwd=tree, capture_output=True, text=True,
        preexec_fn=pin_to_one_cpu if one_cpu else None,
    )
    return f"exit {proc.returncode}: {proc.stderr[-2000:]}" if proc.returncode else None


def compare(name: str, tmp: Path, base: Path, *args: str) -> list[str]:
    """Run `vuglab *args --out DIR` in both trees; every file, run_meta.json
    aside, must match. The failures and differing files, by name."""
    head, old = tmp / name / "head", tmp / name / "base"
    failed = [
        f"failed: {name}/{side}: {err}"
        for side, tree, out in (("head", ROOT, head), ("base", base, old))
        if (err := run_vuglab(tree, *args, "--out", str(out)))
    ]
    return failed or differing(name, head, old)


def differing(name: str, a: Path, b: Path) -> list[str]:
    """The files of output directories `a` and `b`, run_meta.json aside,
    that are not the same, by name."""
    files = sorted({p.name for d in (a, b) for p in d.iterdir()} - {"run_meta.json"})
    diff = [f"differs: {name}/{f}" for f in files if not same(a / f, b / f)]
    print(f"{name}: {len(files) - len(diff)} of {len(files)} files identical")
    return diff


def comparable(path: Path):
    """File bytes, or a trainlog's rows without their timing keys."""
    if path.name.startswith("trainlog_"):
        rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        return [{k: v for k, v in row.items() if k not in TIMING_KEYS} for row in rows]
    return path.read_bytes()


def same(a: Path, b: Path) -> bool:
    return a.exists() and b.exists() and comparable(a) == comparable(b)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="commit to compare against, e.g. origin/main or a SHA")
    args = parser.parse_args(argv)
    bad = []
    with tempfile.TemporaryDirectory(prefix="vuglab-identity-") as tmp:
        tmp = Path(tmp)
        base = tmp / "base"
        base.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.rev], capture_output=True)
        if archive.returncode:
            print(archive.stderr.decode(errors="replace"), end="", file=sys.stderr)
            return 2
        subprocess.run(["tar", "-x", "-C", str(base)], input=archive.stdout, check=True)
        configs = dict(CONFIGS)
        for name, cfg in (("files", SMALL), ("files-blocks", CONFIGS["blocks"])):
            spec, data = tmp / f"{name}-synth.json", tmp / f"{name}-data"
            spec.write_text(json.dumps(cfg), encoding="utf-8")
            if err := run_vuglab(ROOT, "synth", "--config", str(spec), "--out", str(data)):
                bad.append(f"failed: {name}/synth: {err}")
            else:
                for tsv in ("source.tsv", "target.tsv"):
                    add_repeats(data / tsv)
            configs[name] = files_config(cfg, data)
        for name, cfg in configs.items():
            config = tmp / f"{name}.json"
            config.write_text(json.dumps(cfg), encoding="utf-8")
            bad += compare(name, tmp, base, "train", "--config", str(config), "--dump-attention")
        one_cpu, every_cpu = tmp / "files-blocks" / "one-cpu", tmp / "files-blocks" / "head"
        args = ("train", "--config", str(tmp / "files-blocks.json"), "--dump-attention")
        if err := run_vuglab(ROOT, *args, "--out", str(one_cpu), one_cpu=True):
            bad.append(f"failed: files-blocks-one-cpu: {err}")
        elif every_cpu.is_dir():
            bad += differing("files-blocks-one-cpu", every_cpu, one_cpu)
        grid = tmp / "grid.json"
        grid.write_text(json.dumps({**SMALL, "modes": ["cdr-vug"], "seeds": [0]}), encoding="utf-8")
        bad += compare("grid", tmp, base, "grid", "--config", str(grid), "--grid-step", "0.5")
        channel_spec = tmp / "channel-spec.json"
        channel_spec.write_text(json.dumps(CHANNEL_SPEC), encoding="utf-8")
        bad += compare("infolab-demo", tmp, base, "infolab")
        bad += compare("infolab-sweep", tmp, base, "infolab", "--sweep", "30", "--seed", "4")
        bad += compare("infolab-spec", tmp, base, "infolab", "--spec", str(channel_spec))
    for line in bad:
        print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
