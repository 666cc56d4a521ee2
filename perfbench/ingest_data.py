"""Seeded interaction files for the ingest-eval-20k workload, an
independent reference of what the ingest pipeline must produce from them,
and a brute-force ranking oracle for `metrics.evaluate`.

The files give every ingest stage real work: timestamped duplicate
(user, item) rows for `dedupe`, ratings below the threshold for
`binarize`, and a sparse tail of users and items under k=5. The tail items
are reached mostly by tail users, so they survive the first k-core round
and fall out in the second, which pushes fringe users under k in the third.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

N_USERS = 20_000  # per domain, tail included
N_ITEMS = 2_000  # per domain, tail included
N_LINES = 400_000  # per file
N_SHARED = 6_000  # user ids present in both domains
N_TAIL_USERS = 1_000  # 1 to 4 lines each, all under k
N_TAIL_ITEMS = 100
N_FRINGE = 300  # core users with exactly K_CORE lines, one on a tail item
DUPLICATE_SHARE = 0.05
RATINGS = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
RATING_P = np.array([0.07, 0.08, 0.20, 0.35, 0.30])
THRESHOLD = 3.0  # ExperimentConfig.rating_threshold
K_CORE = 5  # ExperimentConfig.k_core
TEST_RATIO = 0.1  # prepare_splits' default target test share
FORMAT = 1  # bump when the generator changes, so cached files are remade


@dataclass
class DomainLog:
    """One domain's lines in file order, as index arrays."""

    tag: str
    users: np.ndarray
    items: np.ndarray
    ratings: np.ndarray
    stamps: np.ndarray

    def user_name(self, u: int) -> str:
        return f"u{u}" if u < N_SHARED else f"{self.tag}{u}"

    def item_name(self, i: int) -> str:
        return f"{self.tag}i{i}"


def _core_items(rng, degrees: np.ndarray) -> np.ndarray:
    """Distinct core items per user, drawn without replacement under a
    Zipf-like popularity (exponential races: the k smallest of E_j / w_j),
    concatenated user by user.
    """
    n_core_items = N_ITEMS - N_TAIL_ITEMS
    weight = (np.arange(n_core_items) + 10.0) ** -0.8
    top = int(degrees.max())
    out = []
    for lo in range(0, len(degrees), 1000):
        deg = degrees[lo : lo + 1000]
        keys = rng.standard_exponential((len(deg), n_core_items)) / weight
        cand = np.argpartition(keys, top - 1, axis=1)[:, :top]
        order = np.argsort(np.take_along_axis(keys, cand, axis=1), axis=1)
        ranked = np.take_along_axis(cand, order, axis=1)
        out.append(ranked[np.arange(top) < deg[:, None]])
    return np.concatenate(out)


def make_domain(rng: np.random.Generator, tag: str) -> DomainLog:
    n_core = N_USERS - N_TAIL_USERS
    n_dup = int(DUPLICATE_SHARE * N_LINES)
    tail_deg = rng.integers(1, K_CORE, size=N_TAIL_USERS)
    # the last N_FRINGE core users have exactly k lines: low ratings drop
    # some in the first k-core round, a tail item drops others in the third
    core_deg = np.full(n_core, K_CORE)
    n_free = n_core - N_FRINGE
    n_core_lines = N_LINES - int(tail_deg.sum()) - n_dup
    core_deg[:n_free] += rng.multinomial(
        n_core_lines - K_CORE * n_core, np.full(n_free, 1.0 / n_free)
    )
    users = np.concatenate(
        [np.repeat(np.arange(n_core), core_deg), np.repeat(np.arange(n_core, N_USERS), tail_deg)]
    )
    first_tail = N_ITEMS - N_TAIL_ITEMS
    core_items = _core_items(rng, core_deg)
    fringe_lines = np.arange(n_core_lines - K_CORE * N_FRINGE, n_core_lines, K_CORE)
    core_items[fringe_lines] = first_tail + rng.integers(0, N_TAIL_ITEMS, size=N_FRINGE)
    tail_items = first_tail + rng.integers(0, N_TAIL_ITEMS, size=int(tail_deg.sum()))
    items = np.concatenate([core_items, tail_items])

    # duplicates repeat core pairs with their own rating and timestamp,
    # which may be older or newer than the original's
    dup = rng.integers(0, n_core_lines, size=n_dup)
    users = np.concatenate([users, users[dup]])
    items = np.concatenate([items, items[dup]])
    ratings = rng.choice(RATINGS, size=N_LINES, p=RATING_P)
    stamps = rng.integers(1_500_000_000, 1_700_000_000, size=N_LINES)
    order = rng.permutation(N_LINES)
    return DomainLog(tag, users[order], items[order], ratings[order], stamps[order])


def make_logs(seed: int) -> tuple[DomainLog, DomainLog]:
    rng = np.random.default_rng([seed, 20_000])
    return make_domain(rng, "s"), make_domain(rng, "t")


def write_files(logs: tuple[DomainLog, DomainLog], directory: str) -> tuple[str, str]:
    """Write source.tsv and target.tsv unless this seed's files exist."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for log, name in zip(logs, ("source", "target")):
        path = os.path.join(directory, f"{name}.tsv")
        if not os.path.exists(path):
            user_names = [log.user_name(u) for u in range(N_USERS)]
            item_names = [log.item_name(i) for i in range(N_ITEMS)]
            lines = [
                f"{user_names[u]}\t{item_names[i]}\t{r}\t{t}\n"
                for u, i, r, t in zip(
                    log.users.tolist(), log.items.tolist(), log.ratings.tolist(), log.stamps.tolist()
                )
            ]
            tmp = path + ".tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.writelines(lines)
            os.replace(tmp, path)
        paths.append(path)
    return paths[0], paths[1]


@dataclass
class Expected:
    """What dedupe -> binarize -> k-core must leave of one domain."""

    users: np.ndarray  # per surviving interaction
    items: np.ndarray
    kcore_rounds: int  # filtering rounds before the fixed point
    n_deduped: int
    n_positive: int

    @property
    def degree(self) -> np.ndarray:
        return np.bincount(self.users, minlength=N_USERS)


def reference_domain(log: DomainLog) -> Expected:
    n = len(log.users)
    pair = log.users.astype(np.int64) * N_ITEMS + log.items
    # latest timestamp per pair; on equal timestamps the later line wins
    order = np.lexsort((np.arange(n), log.stamps, pair))
    last = np.r_[pair[order][1:] != pair[order][:-1], True]
    kept = order[last]
    positive = kept[log.ratings[kept] >= THRESHOLD]
    u, i = log.users[positive], log.items[positive]
    rounds = 0
    while True:
        ok = (np.bincount(u, minlength=N_USERS)[u] >= K_CORE) & (
            np.bincount(i, minlength=N_ITEMS)[i] >= K_CORE
        )
        if ok.all():
            break
        u, i = u[ok], i[ok]
        rounds += 1
    return Expected(u, i, rounds, len(kept), len(positive))


def expected_counts(src: Expected, tgt: Expected) -> dict:
    """Dataset sizes and evaluated-user counts the pipeline must report."""
    src_live = src.degree > 0
    tgt_deg = tgt.degree
    shared = np.zeros(N_USERS, dtype=bool)
    shared[:N_SHARED] = src_live[:N_SHARED] & (tgt_deg[:N_SHARED] > 0)
    # split_per_user gives a user int(n * ratio) test items
    evaluated = (tgt_deg * TEST_RATIO).astype(np.int64) >= 1
    return {
        "source_users": int(src_live.sum()),
        "source_items": len(np.unique(src.items)),
        "source_interactions": len(src.users),
        "target_users": int((tgt_deg > 0).sum()),
        "target_items": len(np.unique(tgt.items)),
        "target_interactions": len(tgt.users),
        "overlap": int(shared.sum()),
        "n_users_evaluated": int(evaluated.sum()),
        "n_overlap": int((evaluated & shared).sum()),
        "n_nonoverlap": int((evaluated & ~shared).sum()),
    }


def oracle_metrics(
    scores: np.ndarray, train_items, test_items, ks: tuple[int, ...]
) -> dict[tuple[str, int], float]:
    """HR@k and NDCG@k of one user by brute force: train positives masked
    out, a stable argsort of the negated scores, so ties go to the lower
    item index.
    """
    masked = scores.copy()
    masked[list(train_items)] = -np.inf
    ranked = np.argsort(-masked, kind="stable")
    rel = set(test_items)
    out = {}
    for k in ks:
        top = ranked[:k].tolist()
        out[("hr", k)] = 1.0 if any(i in rel for i in top) else 0.0
        dcg = 0.0
        for p, i in enumerate(top):
            if i in rel:
                dcg += 1.0 / np.log2(p + 2)
        ideal = sum(1.0 / np.log2(p + 2) for p in range(min(k, len(rel))))
        out[("ndcg", k)] = dcg / ideal
    return out
