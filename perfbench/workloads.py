"""Workload definitions, seeded inputs, and the correctness gate.

Four workloads drive charprod through its public entry points:

* ``sweep``: ``run_verify`` over all odd prime powers 3 <= q <= 343 with
  n <= 3, every suite except ``cardinality`` (53,787 check rows).
* ``cardinality``: the ``cardinality`` suite alone on q = 337 and
  q = 343 = 7^3 (48 rows, 12 q^2 closed counts checked per field).
* ``large-field``: every suite except ``cardinality`` on q = 2197 = 13^3
  and q = 4093, the largest prime under the dense-table limit.
* ``eval-beyond-tables``: 40 ``charprod eval --json`` calls through
  ``cli.main``, half at q = 100003 and half at q = 4913 = 17^3, both past
  the table limit; the seed picks five specs of each kind per field from
  the committed spec pool.

The ``verify`` workloads run fixed checks (charprod seeds its own random
cases), so their committed reference is one row count and one digest.
The ``eval`` workload's seed picks specs from a pool whose rows are
committed one digest per spec.  ``tiny`` sizes (q <= 31) serve the
smoke test.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

NO_CARDINALITY = ("tables", "dickson", "correspondence", "reciprocity",
                  "rescaling", "intro")
EVAL_KINDS = ("A", "S", "S1", "T")
EVAL_MIN_CALLS = 40
VERIFY_ROW_KEYS = ("case", "expected", "actual", "ok", "q", "suite")


@dataclass(frozen=True)
class Workload:
    name: str
    # verify: inclusive q ranges, one run_verify call each; eval: (p, n) fields
    ranges: tuple[tuple[int, int], ...] = ()
    suites: tuple[str, ...] = ()
    eval_fields: tuple[tuple[int, int], ...] = ()
    per_kind: int = 0            # eval specs per (field, kind) in one batch
    nominal_s: float = 0.0       # rough unit time, sets units per run

    @property
    def is_eval(self) -> bool:
        return bool(self.eval_fields)


WORKLOADS = {
    "full": {
        "sweep": Workload("sweep", ((3, 343),), NO_CARDINALITY, nominal_s=15),
        "cardinality": Workload("cardinality", ((337, 343),), ("cardinality",),
                                nominal_s=20),
        "large-field": Workload("large-field", ((2197, 2197), (4093, 4093)),
                                NO_CARDINALITY, nominal_s=26),
        "eval-beyond-tables": Workload(
            "eval-beyond-tables", eval_fields=((100003, 1), (17, 3)),
            per_kind=5, nominal_s=0.7),
    },
    "tiny": {
        "sweep": Workload("sweep", ((3, 31),), NO_CARDINALITY, nominal_s=1),
        "cardinality": Workload("cardinality", ((27, 29),), ("cardinality",),
                                nominal_s=1),
        "large-field": Workload("large-field", ((27, 27), (31, 31)),
                                NO_CARDINALITY, nominal_s=1),
        "eval-beyond-tables": Workload(
            "eval-beyond-tables", eval_fields=((31, 1), (3, 3)),
            per_kind=2, nominal_s=1),
    },
}
POOL_PER_KIND = {"full": 15, "tiny": 4}


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# eval specs
# ---------------------------------------------------------------------------

def eval_key(p: int, n: int, spec: str) -> str:
    return f"{p}^{n}:{spec}"


def random_spec(rng: random.Random, p: int, n: int, kind: str) -> str:
    """A valid random family spec in charprod's text syntax."""
    def elem():
        return tuple(rng.randrange(p) for _ in range(n))

    def text(x):
        return ",".join(map(str, x)) if n > 1 else str(x[0])

    signs = "".join(rng.choice("+-") for _ in range(1 if kind == "S1" else 2))
    if kind == "S1":
        return f"S1 {text(elem())} {signs}"
    while True:
        x, y = elem(), elem()
        if kind in ("A", "S") and x == y:
            continue
        if kind == "T" and all((a + b) % p == 0 for a, b in zip(x, y)):
            continue
        return f"{kind} {text(x)} {text(y)} {signs}"


def eval_batch(wl: Workload, pool: list[dict], seed: int,
               batches: int = 1) -> list[tuple[int, int, str]]:
    """Seeded calls: ``per_kind`` pool specs per (field, kind), shuffled."""
    rng = random.Random(f"perfbench:{wl.name}:{seed}")
    calls = []
    for _ in range(batches):
        for p, n in wl.eval_fields:
            for kind in EVAL_KINDS:
                group = [e["spec"] for e in pool
                         if (e["p"], e["n"]) == (p, n) and e["spec"].split()[0] == kind]
                calls += [(p, n, s) for s in rng.sample(group, wl.per_kind)]
    rng.shuffle(calls)
    return calls


def eval_batch_size(wl: Workload) -> int:
    return len(wl.eval_fields) * len(EVAL_KINDS) * wl.per_kind


def eval_batches(wl: Workload, seconds: float) -> int:
    """Batches per run: at least 40 calls, and about ``seconds`` of them."""
    want = max(EVAL_MIN_CALLS, int(seconds / wl.nominal_s))
    return -(-want // eval_batch_size(wl))


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def canonical(row: dict) -> str:
    return json.dumps(row, sort_keys=True, separators=(",", ":"))


def check_rows(rows: list[dict]) -> list[dict]:
    """The verify rows that are checks (header or summary rows are not)."""
    return [r for r in rows if all(k in r for k in VERIFY_ROW_KEYS)]


def verify_digest(rows: list[dict]) -> str:
    h = hashlib.sha256()
    for r in check_rows(rows):
        h.update(canonical({k: r[k] for k in VERIFY_ROW_KEYS}).encode())
        h.update(b"\n")
    return h.hexdigest()


def eval_digest(row: dict) -> str:
    return hashlib.sha256(canonical(row).encode()).hexdigest()


def gate_verify(rows: list[dict], ref: dict) -> list[str]:
    """Problems with a verify workload's rows; empty means the gate passes."""
    checks = check_rows(rows)
    problems = []
    bad = sum(1 for r in checks if r["ok"] is not True)
    if bad:
        problems.append(f"{bad} check rows have ok=false")
    if len(checks) != ref["rows"]:
        problems.append(f"{len(checks)} check rows, reference has {ref['rows']}")
    digest = verify_digest(rows)
    if digest != ref["sha256"]:
        problems.append(f"row digest {digest[:12]} != reference {ref['sha256'][:12]}")
    return problems


def gate_eval(results: list[dict], pool_ref: dict[str, str]) -> list[str]:
    """Problems with eval results: each {key, rc, row}; row is the --json row."""
    problems = []
    for res in results:
        row = res["row"]
        if res["rc"] != 0 or row is None or row.get("match") is not True:
            problems.append(f"{res['key']}: rc={res['rc']} row={row}")
        elif eval_digest(row) != pool_ref.get(res["key"]):
            problems.append(f"{res['key']}: row differs from reference: {row}")
    return problems
