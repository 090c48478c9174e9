"""The benchmark's three workloads: inputs, one pass of each, and output checks.

Every check is independent of the engine under test: report totals and
scenario names are fixed here, ladder answers come from closed formulas
(binomial coefficients, the hook-length formula, box complements), and the
generated scenario files assert only identities.

A workload's cold pass runs in a fresh interpreter through ``cold.py`` with
the arguments in its ``cold_args``.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
import sys
from contextlib import nullcontext
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("paper-suite", "grass-ladder", "scenario-files")


def import_fanocalc():
    """Import fanocalc from this checkout's ``src`` and return its CLI module."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import fanocalc  # noqa: F401  (its re-exports are lookup sites the tracer patches)
    from fanocalc import cli

    return cli


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


class Checks:
    """Counts checks attempted and failed, keeping the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)


def _check_report(text: str, expected: dict, checks: Checks, what: str) -> None:
    """Check a JSON report against ``{scenario name: labels or assertion count}``.

    Every assertion must pass with equal integer sides; the engine's own
    ``pass`` flag and totals are cross-checked, not trusted.
    """
    try:
        report = json.loads(text)
        scenarios = {s["name"]: s["assertions"] for s in report["scenarios"]}
    except (ValueError, KeyError, TypeError) as exc:
        checks.expect(False, f"{what}: malformed report ({exc})")
        return
    total = sum(v if isinstance(v, int) else len(v) for v in expected.values())
    checks.expect(sorted(scenarios) == sorted(expected), f"{what}: scenario names differ from the inputs")
    checks.expect(report.get("total") == total, f"{what}: total {report.get('total')} != {total}")
    checks.expect(report.get("failed") == 0, f"{what}: engine reports {report.get('failed')} failed")
    for name, assertions in scenarios.items():
        want = expected.get(name)
        got = [a["label"] for a in assertions] if isinstance(want, list) else len(assertions)
        checks.expect(got == want, f"{what}: assertions of {name} differ from the inputs")
        for a in assertions:
            ok = (
                a["pass"] is True
                and type(a["actual"]) is int
                and type(a["expected"]) is int
                and a["actual"] == a["expected"]
            )
            checks.expect(ok, f"{what}: {name}/{a['label']} expected={a['expected']} actual={a['actual']}")


# ---------------------------------------------------------------------------
# paper-suite: the ten built-in scenarios through `run --all --format json`

PAPER_SCENARIOS = {
    "gr25-chern": 10,
    "gr26-v14-plane": 8,
    "moduli-counts": 7,
    "sanity-p4-line": 3,
    "v12-link": 6,
    "v14-link": 11,
    "w22-line-link": 4,
    "w5-invariants": 11,
    "w5-pi-link": 7,
    "w5-xi-link": 3,
}  # 70 assertions


class PaperSuite:
    name = "paper-suite"
    argv = ["run", "--all", "--format", "json"]

    def __init__(self, cli):
        self.cli = cli

    @property
    def cold_args(self) -> list:
        return ["cli", *self.argv]

    def warm_pass(self, tracer=None) -> str:
        return _cli_pass(self.cli, self.argv)

    def check(self, text: str, checks: Checks, what: str) -> None:
        _check_report(text, PAPER_SCENARIOS, checks, what)


def _cli_pass(cli, argv: list) -> str:
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(list(argv), out=out, err=err)
    if code != 0:
        raise RuntimeError(f"fanocalc {' '.join(argv[:2])} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


# ---------------------------------------------------------------------------
# grass-ladder: tensor_chern on fixed rungs, all basis-pair products on two more


def box_basis(k: int, n: int) -> list:
    """All partitions in the k x (n-k) box, sorted, without trailing zeros."""
    width = n - k
    out = []

    def rec(prefix, cap):
        out.append(tuple(prefix))
        if len(prefix) < k:
            for p in range(1, cap + 1):
                rec(prefix + [p], p)

    rec([], width)
    return sorted(out)


def box_dual(k: int, n: int, lam: tuple) -> tuple:
    padded = tuple(lam) + (0,) * (k - len(lam))
    dual = tuple((n - k) - p for p in reversed(padded))
    return tuple(p for p in dual if p)


def hook_degree(k: int, n: int) -> int:
    """Degree of Gr(k, n) in the Pluecker embedding, by the hook-length formula."""
    dim = k * (n - k)
    hooks = 1
    for i in range(k):
        for j in range(n - k):
            hooks *= (k - i) + (n - k - j) - 1
    return math.factorial(dim) // hooks


def _terms_digest(digest, cycle) -> None:
    digest.update(repr(sorted(cycle.terms.items())).encode())


def ladder_pass(tensor_rungs, product_rungs, tracer=None) -> dict:
    """One pass over the ladder; returns the integers the checks need.

    Duality pairings are the integrals of all complementary basis products;
    ``digest`` hashes every computed class so passes can be compared
    exactly.
    """
    from fanocalc import chern, schubert

    digest = hashlib.sha256()
    rungs = []

    def tensor_rung(k, n):
        ctx = schubert.Grassmannian(k, n)
        with _span(tracer, spans.tensor_span(k, n)):
            total = chern.tensor_chern(*chern.universal_bundles(ctx))
        basis = box_basis(k, n)
        pairing = [
            (schubert.sigma(ctx, *a) * schubert.sigma(ctx, *b)).integral()
            for i, a in enumerate(basis)
            for b in basis[i:]
            if sum(a) + sum(b) == ctx.dim
        ]
        degree = (schubert.sigma(ctx, 1) ** ctx.dim).integral()
        return total, {"k": k, "n": n, "c_top": total.component(ctx.dim).integral(),
                       "sigma1_degree": degree, "pairing": pairing, "negative": 0}

    for k, n in tensor_rungs:
        total, rung = tensor_rung(k, n)
        for c in total.components:
            _terms_digest(digest, c)
        rungs.append(rung)
    for k, n in product_rungs:
        ctx = schubert.Grassmannian(k, n)
        basis = box_basis(k, n)
        cycles = [schubert.sigma(ctx, *a) for a in basis]
        with _span(tracer, spans.products_span(k, n)):
            products = [[a * b for b in cycles[i:]] for i, a in enumerate(cycles)]
        pairing, negative = [], 0
        for i, row in enumerate(products):
            for offset, prod in enumerate(row):
                _terms_digest(digest, prod)
                negative += sum(1 for c in prod.terms.values() if c < 0)
                if sum(basis[i]) + sum(basis[i + offset]) == ctx.dim:
                    pairing.append(prod.integral())
        rungs.append({"k": k, "n": n, "c_top": None, "sigma1_degree": None, "pairing": pairing, "negative": negative})
    return {"rungs": rungs, "digest": digest.hexdigest()}


def expected_pairing(k: int, n: int) -> list:
    basis = box_basis(k, n)
    dim = k * (n - k)
    out = []
    for i, a in enumerate(basis):
        for b in basis[i:]:
            if sum(a) + sum(b) == dim:
                out.append(1 if b == box_dual(k, n, a) else 0)
    return out


class GrassLadder:
    name = "grass-ladder"

    def __init__(self, tensor_rungs=spans.TENSOR_RUNGS, product_rungs=spans.PRODUCT_RUNGS):
        self.tensor_rungs = tuple(tensor_rungs)
        self.product_rungs = tuple(product_rungs)

    @property
    def cold_args(self) -> list:
        if (self.tensor_rungs, self.product_rungs) != (spans.TENSOR_RUNGS, spans.PRODUCT_RUNGS):
            raise ValueError("the cold ladder child runs the full ladder only")
        return [self.name]

    def warm_pass(self, tracer=None) -> str:
        return json.dumps(ladder_pass(self.tensor_rungs, self.product_rungs, tracer), sort_keys=True)

    def check(self, text: str, checks: Checks, what: str) -> None:
        try:
            rungs = json.loads(text)["rungs"]
        except (ValueError, KeyError, TypeError) as exc:
            checks.expect(False, f"{what}: malformed ladder output ({exc})")
            return
        shape = [(r["k"], r["n"]) for r in rungs]
        checks.expect(shape == list(self.tensor_rungs + self.product_rungs), f"{what}: rungs {shape}")
        for r in rungs:
            k, n = r["k"], r["n"]
            tag = f"{what}: Gr({k},{n})"
            if (k, n) in self.tensor_rungs:
                checks.expect(r["c_top"] == math.comb(n, k), f"{tag} c_top integrates to {r['c_top']}")
                checks.expect(r["sigma1_degree"] == hook_degree(k, n), f"{tag} sigma_1^dim is {r['sigma1_degree']}")
            else:
                checks.expect(r["negative"] == 0, f"{tag} has {r['negative']} negative structure constants")
            checks.expect(r["pairing"] == expected_pairing(k, n), f"{tag} duality pairing is not the identity")


# ---------------------------------------------------------------------------
# scenario-files: seeded identity assertions over the six standard models

# Profile literals (h4, index, c2h2, chi, euler) of the four ambient
# fourfolds: P4 and the (2,2) complete intersection W22 from
# c = (1+h)^(n+1) / prod(1 + d h); W5 and V14 from c_2 = 4 s2 + 5 s11 on a
# double section of Gr(2,5) and c_2 = 2 s2 + 4 s11 on a quadruple section of
# Gr(2,6).  Centers carry the data of the built-in link scenarios.
_PROFILES = {
    "P4": (1, 5, 10, 1, 5),
    "W22": (4, 3, 20, 1, 12),
    "W5": (5, 3, 22, 1, 6),
    "V14": (14, 2, 38, 1, 12),
}
_LINE = "center curve genus 0 hc 1"
MODELS = (
    ("p4-line", "P4", _LINE),
    ("w22-line", "W22", _LINE),
    ("w22-quintic", "W22", "center surface hhc 5 hkc -5 kc2 5 euler 7 c2xc 25"),
    ("w5-xi", "W5", "center surface hhc 1 hkc -3 kc2 9 euler 3 c2xc 5"),
    ("w5-pi", "W5", "center surface hhc 1 hkc -3 kc2 9 euler 3 c2xc 4"),
    ("v14-plane", "V14", "center surface hhc 1 hkc -3 kc2 9 euler 3 c2xc 2"),
)
FILES = 8
ASSERTIONS_PER_SCENARIO = 50
GRID = 4  # divisor coefficients are drawn from [-GRID, GRID]


def _divisor(a: int, b: int) -> str:
    sign = "-" if b < 0 else "+"
    return f"{a}*H {sign} {abs(b)}*E"


def generate_scenarios(seed: int, files: int = FILES, per_scenario: int = ASSERTIONS_PER_SCENARIO):
    """Seeded scenario sources: ``([source per file], {scenario: [labels]})``.

    Each assertion is an identity: Serre duality chi(D) == chi(K - D), with
    K = -index H + (codim - 1) E written out, or additivity of quartic in one
    argument.
    """
    rng = random.Random(seed)

    def draw():
        return rng.randint(-GRID, GRID), rng.randint(-GRID, GRID)

    sources, expected = [], {}
    for f in range(files):
        blocks = []
        for model, ident, center in MODELS:
            h4, index, c2h2, chi, euler = _PROFILES[ident]
            canonical = _divisor(-index, 2 if center.startswith("center curve") else 1)
            name = f"{model}-f{f:02d}"
            lines = [
                f'scenario "{name}" {{',
                f"  profile {ident} h4 {h4} index {index} c2h2 {c2h2} chi {chi} euler {euler}",
                f"  {center}",
            ]
            labels = []
            # Half of each kind, in seeded order, so every seed parses and
            # evaluates the same mix.
            kinds = ["serre", "additive"] * (per_scenario // 2) + ["serre"] * (per_scenario % 2)
            rng.shuffle(kinds)
            for j, kind in enumerate(kinds):
                if kind == "serre":
                    d = _divisor(*draw())
                    label = f"serre-{j:03d}"
                    lines.append(
                        f'  assert chi({d}) == chi({canonical} - ({d})) cite "Serre duality" label "{label}"'
                    )
                else:
                    args = [_divisor(*draw()) for _ in range(4)]
                    extra = _divisor(*draw())
                    slot = rng.randrange(4)
                    summed = list(args)
                    summed[slot] = f"{args[slot]} + ({extra})"
                    other = list(args)
                    other[slot] = extra
                    label = f"additive-{j:03d}"
                    lines.append(
                        f"  assert quartic({', '.join(summed)}) =="
                        f" quartic({', '.join(args)}) + quartic({', '.join(other)})"
                        f' cite "quartic is additive in argument {slot + 1}" label "{label}"'
                    )
                labels.append(label)
            lines.append("}")
            blocks.append("\n".join(lines) + "\n")
            expected[name] = labels
        sources.append("\n".join(blocks))
    return sources, expected


class ScenarioFiles:
    name = "scenario-files"

    def __init__(self, cli, seed: int, directory: Path, files: int = FILES,
                 per_scenario: int = ASSERTIONS_PER_SCENARIO):
        self.cli = cli
        sources, self.expected = generate_scenarios(seed, files, per_scenario)
        directory.mkdir(parents=True, exist_ok=True)
        self.paths = []
        for i, source in enumerate(sources):
            path = directory / f"generated-{i:02d}.scn"
            path.write_text(source, encoding="utf-8")
            self.paths.append(str(path))
        self.argv = ["check", *self.paths, "--format", "json"]

    @property
    def cold_args(self) -> list:
        return ["cli", *self.argv]

    def warm_pass(self, tracer=None) -> str:
        return _cli_pass(self.cli, self.argv)

    def check(self, text: str, checks: Checks, what: str) -> None:
        _check_report(text, self.expected, checks, what)


def make(name: str, cli, seed: int, directory: Path):
    if name == "paper-suite":
        return PaperSuite(cli)
    if name == "grass-ladder":
        return GrassLadder()
    if name == "scenario-files":
        return ScenarioFiles(cli, seed, directory)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")

