"""Terminal front end: every table and claim as a text or JSON report.

Each subcommand regenerates one layer from scratch; `verify-all` runs the
whole gauntlet and exits nonzero if anything disagrees with the frozen
values.  Output is deterministic for fixed flags: dictionaries are emitted
in display order, numbers in exact rational form, and nothing is colored,
so NO_COLOR needs no special handling.
"""

from __future__ import annotations

import argparse
import cmath
import gc
import json
import math
import os
import sys
from fractions import Fraction
from typing import NamedTuple

from .exact import CycQ, format_cyc
from .qseries import eta_power_8, evaluate, numeric_transform_check, obstruction_eisenstein

# The other layers are imported inside the functions that read them, so a
# command loads only what it runs: `eisenstein` loads no other layer.

class CheckResult(NamedTuple):
    name: str
    status: str  # pass | fail
    expected: str
    actual: str
    source: str


def _frac(x) -> str:
    return str(Fraction(x))


def _term(n: int, coeff: CycQ) -> str:
    c = format_cyc(coeff)
    if n == 0:
        return c
    if n % 3 == 0:
        mono = "q" if n == 3 else f"q^{n // 3}"
    else:
        mono = f"q^({n}/3)"
    return f"{c} {mono}"


def _series_str(series) -> str:
    terms = [_term(n, series.coeff_at(n)) for n in series.support()]
    return " + ".join(terms) if terms else "0"


def _module_for(preset_name: str):
    from .fqm import paper_module

    if preset_name == "paper":
        return paper_module()
    from .lattice import discriminant_form, preset

    return discriminant_form(preset(preset_name)).module


def _emit_json(obj) -> int:
    print(json.dumps(obj, separators=(",", ":")))
    return 0


# ---------------------------------------------------------------------------
# subcommands


def cmd_classify(args) -> int:
    from .fqm import classify, element_str

    module = _module_for(args.preset)
    types = classify(module)
    hist = module.q_histogram()
    if args.format == "json":
        return _emit_json({
            "preset": args.preset,
            "counts": {t: len(v) for t, v in types.items()},
            "q_histogram": {_frac(k): v for k, v in sorted(hist.items())},
            "elements": {t: [element_str(x) for x in v] for t, v in types.items()},
        })
    print(f"preset: {args.preset}")
    print("counts: " + " ".join(f"{t}={len(v)}" for t, v in types.items()))
    print("q histogram: " + " ".join(
        f"{_frac(k)}->{v}" for k, v in sorted(hist.items())))
    for t, v in types.items():
        print(f"type {t}: " + " ".join(element_str(x) for x in v))
    return 0


def cmd_pairing_table(args) -> int:
    from .fqm import PAIRING_COLUMNS, TYPE_LABELS, pairing_table

    module = _module_for(args.preset)
    table = pairing_table(module)
    if args.format == "json":
        return _emit_json({
            "preset": args.preset,
            "columns": [_frac(c) for c in PAIRING_COLUMNS],
            "rows": {f"{u},{v}": list(table[(u, v)])
                     for u in TYPE_LABELS for v in TYPE_LABELS},
        })
    print(f"preset: {args.preset}")
    header = "          " + "".join(f"b={_frac(c):<8}" for c in PAIRING_COLUMNS)
    print(header.rstrip())
    for u in TYPE_LABELS:
        for v in TYPE_LABELS:
            m = table[(u, v)]
            print(f"({u:>2},{v:>2})  " + "".join(f"{x:<10}" for x in m).rstrip())
    return 0


def cmd_weil(args) -> int:
    from .fqm import TYPE_LABELS, paper_module
    from .weil import (CLASS_ORDER, aggregated_dual, build_weil, cayley_check,
                       character_decompose)

    rep = build_weil(paper_module())
    closed = cayley_check(rep)
    dec = character_decompose(rep)
    agg_t, agg_s = aggregated_dual(rep)
    phases = [format_cyc(agg_t[i][i]) for i in range(4)]
    traces = [format_cyc(t) for t in dec.traces]
    if args.format == "json":
        return _emit_json({
            "dimension": rep.dim(),
            "t_phases_by_type": dict(zip(TYPE_LABELS, phases)),
            "s_entry_rule": "-(1/9) e(-b(d,a))",
            "relations": "certified",
            "cayley_products": closed,
            "traces": dict(zip(CLASS_ORDER, traces)),
            "aggregated_t": [[format_cyc(x) for x in row] for row in agg_t],
            "aggregated_s": [[format_cyc(x) for x in row] for row in agg_s],
        })
    print(f"dimension: {rep.dim()}")
    print("T phases by type: " + " ".join(
        f"{t}->{p}" for t, p in zip(TYPE_LABELS, phases)))
    print("S entries: -(1/9) e(-b(d,a)) for all 81 x 81 pairs")
    print("relations T^3 = 1, S^4 = 1, (ST)^3 = S^2: certified")
    print(f"cayley products verified: {closed}")
    print("traces: " + " ".join(f"{c}={t}" for c, t in zip(CLASS_ORDER, traces)))
    print("aggregated dual T: diag(" + ", ".join(phases) + ")")
    print("aggregated dual S:")
    for row in agg_s:
        print("  [" + " ".join(f"{format_cyc(x * (-9)):>3}" for x in row) + "] / -9")
    return 0


def cmd_character(args) -> int:
    from .fqm import paper_module
    from .weil import CHARACTER_TABLE, CLASS_ORDER, CLASS_SIZES, build_weil, character_decompose

    rep = build_weil(paper_module())
    dec = character_decompose(rep)
    mults = " ".join(str(m) for m in dec.multiplicities)
    if args.format == "json":
        return _emit_json({
            "classes": list(CLASS_ORDER),
            "sizes": list(CLASS_SIZES),
            "table": {str(i): [format_cyc(x) for x in CHARACTER_TABLE[i]]
                      for i in sorted(CHARACTER_TABLE)},
            "traces": [format_cyc(t) for t in dec.traces],
            "multiplicities": list(dec.multiplicities),
        })
    print("classes: " + " ".join(f"{c:>8}" for c in CLASS_ORDER))
    print("sizes:   " + " ".join(f"{s:>8}" for s in CLASS_SIZES))
    for i in sorted(CHARACTER_TABLE):
        row = " ".join(f"{format_cyc(x):>8}" for x in CHARACTER_TABLE[i])
        print(f"chi{i}:    {row}")
    print(f"multiplicities: {mults}")
    return 0


def cmd_dimension(args) -> int:
    from .fqm import aggregated_action, paper_module
    from .vvmf import RepSpec, dimension_report

    agg_t, agg_s = aggregated_action(paper_module())
    report = dimension_report(RepSpec(agg_t, agg_s), args.weight)
    if args.format == "json":
        return _emit_json(report.to_json())
    print(f"weight: {report.weight}")
    print(f"fixed subspace dimension: {report.dim_plus}")
    print(f"alpha invariants: S={report.alpha_s} ST={report.alpha_st} "
          f"T={report.alpha_t}")
    print(f"dim modular: {report.dim_modular}")
    print(f"dim eisenstein: {report.dim_eisenstein}")
    print(f"dim cusp: {report.dim_cusp}")
    return 0


def cmd_eisenstein(args) -> int:
    form = obstruction_eisenstein(args.precision)
    a, b = form.weights
    if args.format == "json":
        return _emit_json({
            "combination": {"a": _frac(a), "b": _frac(b)},
            "precision": args.precision,
            "components": {
                label: {str(n): format_cyc(series.coeff_at(n)) for n in series.support()}
                for label, series in form.components.items()
            },
        })
    print(f"combination: a={a} b={b}")
    print(f"precision: {args.precision} thirds")
    for label, series in form.components.items():
        print(f"f_{label}: {_series_str(series)}")
    return 0


def cmd_borcherds(args) -> int:
    from .borcherds import (ball_weight, borcherds_weight, long_root_divisor,
                            obstruction_check, short_root_divisor)

    divisor = long_root_divisor() if args.divisor == "long" else short_root_divisor()
    form = obstruction_eisenstein(3)  # the weights read only q^(1/3) and q^(2/3)
    weight = borcherds_weight(divisor, form)
    ball = ball_weight(divisor, form)
    obstruction = obstruction_check(4)
    if args.format == "json":
        return _emit_json({
            "weight_on_D": _frac(weight),
            "weight_on_ball": _frac(ball),
            "obstruction_ok": obstruction.ok,
        })
    (label, norm), mult = next(iter(divisor.entries.items()))
    print(f"divisor: {args.divisor} (type {label}, norm {norm}, multiplicity {mult})")
    print(f"weight on D: {weight}")
    print(f"weight on ball: {ball}")
    print(f"obstruction ok: {'true' if obstruction.ok else 'false'}")
    return 0


def sign_vector_rows(rep, sub, svs) -> list[dict]:
    """Per sign vector: its basis, support, lift witness and verify_special verdict."""
    from .borcherds import lift_witness
    from .fqm import element_str
    from .weil import verify_special

    return [{"basis": element_str(sv.basis.alpha0), "support": len(sv.coeffs),
             "witness": {"element": element_str(x), "coefficient": c},
             "checks_ok": verify_special(rep, sv, sub).ok}
            for sv in svs for x, c in [lift_witness(sv)]]


def cmd_special_vectors(args) -> int:
    from .fqm import paper_module
    from .weil import (build_weil, isotypic_subspace, o_q_character_norm,
                       special_vector_rank, special_vectors)

    rep = build_weil(paper_module())
    sub = isotypic_subspace(rep)
    svs = special_vectors(rep)
    rank = special_vector_rank(svs)
    norm = o_q_character_norm(rep, sub.projector)
    rows = sign_vector_rows(rep, sub, svs)
    if args.format == "json":
        return _emit_json({
            "count": len(svs),
            "rank": rank,
            "isotypic_dimension": sub.dimension,
            "character_norm": _frac(norm),
            "vectors": rows,
        })
    print(f"count: {len(svs)}")
    print(f"rank: {rank}")
    print(f"isotypic dimension: {sub.dimension}")
    print(f"character norm: {norm}")
    for r in rows:
        w = r["witness"]
        ok = "ok" if r["checks_ok"] else "FAILED"
        print(f"basis {r['basis']} | support {r['support']} | "
              f"witness {w['element']} -> {w['coefficient']:+d} | checks {ok}")
    return 0


def cmd_accounting(args) -> int:
    from .borcherds import accounting_report
    from .fqm import paper_module

    # the weights read only q^(1/3) and q^(2/3)
    report = accounting_report(paper_module(), obstruction_eisenstein(3))
    if args.format == "json":
        return _emit_json(report.to_json())
    print(f"bases: {report.n_bases}")
    print(f"long pairs: {report.long_pairs}")
    print(f"short pairs: {report.short_pairs}")
    print(f"short incidence: {report.short_incidence}")
    print(f"weight long: {report.weight_long} (ball {report.ball_long})")
    print(f"weight short: {report.weight_short} (ball {report.ball_short})")
    print(f"short multiplicity: {report.short_multiplicity}")
    print(f"per-basis weight: {report.ball_long} + "
          f"{report.short_multiplicity} * {report.ball_short} = "
          f"{report.per_basis_weight} = 6 * {report.n_bases}")
    print(f"isotropic nonzero: {report.isotropic_nonzero}")
    print(f"cusps: {report.cusps}")
    return 0


# ---------------------------------------------------------------------------
# the verification gauntlet


FAILURES = (ValueError, ArithmeticError)  # a failed stage or command; anything else is a bug


class _Failed(ValueError):
    """Raised on reading a failed stage; `skip` is what the stages built on it report."""

    def __init__(self, text: str, skip: str):
        super().__init__(text)
        self.skip = skip


def run_checks() -> list[CheckResult]:
    """All fourteen frozen-value checks, in a fixed order.

    A check reads its inputs through `stage`, which runs each named stage
    once per run.  A stage that raises one of FAILURES fails every check
    that reads it, with the error text; a stage built on a failed one reads
    `skipped: <stage> failed`.  Every other check still runs.
    """
    from .borcherds import (accounting_report, borcherds_weight, lift_witness,
                            long_root_divisor, short_root_divisor)
    from .fqm import (REFERENCE_TABLE, TYPE_LABELS, TYPE_PATTERNS, central_negation, classify,
                      element_str, expand_patterns, involutive_reflections, orthogonal_group,
                      paper_module, pairing_table, reflect)
    from .lattice import (alt_spec, discriminant_form, milgram_signature, paper_spec,
                          reflection_minus_one, trireflection)
    from .vvmf import RepSpec, dimension_report
    from .weil import (aggregated_dual, build_weil, cayley_check, character_decompose,
                       isotypic_subspace, o_q_character_norm, special_vector_rank,
                       special_vectors)

    memo = {}

    def stage(name, thunk):
        if name not in memo:
            try:
                memo[name] = thunk()
            except _Failed as e:  # an input failed
                memo[name] = _Failed(e.skip, e.skip)
            except FAILURES as e:
                memo[name] = _Failed(str(e), f"skipped: {name} failed")
        if isinstance(memo[name], _Failed):
            raise memo[name]
        return memo[name]

    module = lambda: stage("paper_module", paper_module)
    rep = lambda: stage("build_weil", lambda: build_weil(module()))
    dual = lambda: stage("aggregated_dual", lambda: aggregated_dual(rep()))
    dims = lambda: stage("dimension_report", lambda: dimension_report(RepSpec(*dual()), 4))
    form = lambda: stage("obstruction_eisenstein", lambda: obstruction_eisenstein(60))
    acct = lambda: stage("accounting_report", lambda: accounting_report(module(), form()))
    sub = lambda: stage("isotypic_subspace", lambda: isotypic_subspace(rep()))
    svs = lambda: stage("special_vectors", lambda: special_vectors(rep()))
    rows = lambda: stage("sign_vector_rows", lambda: sign_vector_rows(rep(), sub(), svs()))
    standard = lambda: next(sv for sv in svs() if sv.basis.alpha0 == (1, 0, 0, 0))

    def census():
        types = classify(module())
        same = all(expand_patterns(TYPE_PATTERNS[t]) == frozenset(types[t]) for t in TYPE_LABELS)
        return (" ".join(f"{t}={len(types[t])}" for t in TYPE_LABELS)
                + f" patterns={'match' if same else 'differ'}")

    def pairing():
        table = pairing_table(module())
        bad = sum(1 for k, v in REFERENCE_TABLE.items() if table.get(k) != v)
        return "16 triples match" if bad == 0 else f"{bad} triples differ"

    def traces():
        closed, dec = cayley_check(rep()), character_decompose(rep())
        return (f"traces={tuple(int(t.as_fraction()) for t in dec.traces)} "
                f"mult={dec.multiplicities} closed={closed}")

    def normalization():
        f00 = form().component("00")
        leading = [_term(*form().component(label).leading()) for label in ("0", "1", "2")]
        c = (2 * math.pi) ** 4 / 486
        a_coef, b_coef = form().weights
        sums = [_lattice_sum(*ab, 1.3j) / c for ab in ((0, 1), (1, 0), (1, 1), (1, 2))]
        direct = float(a_coef) * sums[0] + float(b_coef) * (sums[1] + sums[2] + sums[3])
        dev = abs(direct - evaluate(f00, 1.3j)) / abs(direct)
        return (f"const={format_cyc(f00.coeff_at(0))} f_0={leading[0]} f_1={leading[1]} "
                f"f_2={leading[2]} f_00_q={format_cyc(f00.coeff_at(3))} "
                f"oracle={'ok' if dev < 1e-10 else f'relative deviation {dev:.3e}'}")

    def weights():
        w_long = borcherds_weight(long_root_divisor(), form())
        w_short = borcherds_weight(short_root_divisor(), form())
        obstruction = "ok" if dims().dim_cusp == 0 else "cusp forms remain"
        return (f"long={w_long} ball={w_long / 3} short={w_short} "
                f"ball={w_short / 3} obstruction={obstruction}")

    def group():
        g = orthogonal_group(module())
        return (f"order={g.order} orbits={tuple(sorted(len(o) for o in g.orbits))} "
                f"central={'-1' if central_negation(g) else 'missing'} "
                f"reflections={len(involutive_reflections(g))}")

    def special():
        r, p, vs = rep(), sub().projector, svs()  # the inputs before the rows built on them
        ok = all(row["checks_ok"] for row in rows())
        return (f"count={len(vs)} checks={'ok' if ok else 'failed'} "
                f"rank={special_vector_rank(vs)} norm={o_q_character_norm(r, p)}")

    def witnesses():
        x, coeff = lift_witness(standard())
        signed = all(row["witness"]["coefficient"] in (-1, 1) for row in rows())
        return f"all={'signed' if signed else 'broken'} standard={element_str(x)}->{coeff}"

    def lattice_layer():
        spec = paper_spec()
        data = discriminant_form(spec)
        identity4 = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
        tri_ok = data.induced_map(trireflection(spec, (0, 0, 1, 0, 0, 0, 0, 0))) == identity4
        long_root = (0, 0, 1, 0, 1, 0, 0, 0)
        refl_ok = (data.induced_map(reflection_minus_one(spec, long_root))
                   == reflect(module(), data.vector_class(long_root)).matrix)
        alt = discriminant_form(alt_spec())
        hist_ok = data.module.q_histogram() == alt.module.q_histogram()
        sigs = (milgram_signature(data.module), milgram_signature(alt.module))
        return (f"trireflection={'identity' if tri_ok else 'moves classes'} "
                f"reflection={'F3-reflection' if refl_ok else 'mismatch'} "
                f"histograms={'equal' if hist_ok else 'differ'} milgram={sigs}")

    def transform():
        r, eta8 = rep(), eta_power_8(60)
        components = [eta8.scale(v) for v in standard().vec]
        dev = numeric_transform_check(components, r.rho_T, r.rho_S, 4,
                                      0.3 + 1.1j)["max_deviation"]
        return "max deviation < 1e-8" if dev < 1e-8 else f"max deviation {dev:.3e}"

    def accounting():
        a = acct()
        identity = (a.ball_long + a.short_multiplicity * a.ball_short
                    == 6 * a.n_bases == a.per_basis_weight)
        return (f"{a.ball_long} + {a.short_multiplicity} * {a.ball_short} "
                f"= {a.per_basis_weight} = 6 * {a.n_bases} "
                f"multiplicity={'enumerated' if identity else 'broken'}")

    table = (
        ("type-census", "00=1 0=20 1=30 2=30 patterns=match",
         "census of q-values over the 81 digit tuples", census),
        ("pairing-table", "16 triples match", "pairing-count table of the rank-4 module",
         pairing),
        ("weil-traces",
         "traces=(81, 1, 1, -9, 1, 1, -9) mult=(1, 10, 5, 5, 5, 10, 5) closed=576",
         "conjugacy-class traces of the metaplectic action", traces),
        ("aggregated-dual", "matches the displayed pair", "type-aggregated conjugate action",
         lambda: dual() and "matches the displayed pair"),
        ("dimension-report", "d=4 alpha=(1, 4/3, 1) dim=2 eis=2 cusp=0",
         "fixed-subspace dimension bookkeeping at weight 4",
         lambda: "d={0.dim_plus} alpha=({0.alpha_s}, {0.alpha_st}, {0.alpha_t}) "
                 "dim={0.dim_modular} eis={0.dim_eisenstein} cusp={0.dim_cusp}".format(dims())),
        ("eisenstein-normalization",
         "const=-1/2 f_0=270 q f_1=135 q^(2/3) f_2=15 q^(1/3) f_00_q=15 oracle=ok",
         "normalized weight-4 congruence sums and a truncated lattice sum", normalization),
        ("borcherds-weights", "long=135 ball=45 short=15 ball=5 obstruction=ok",
         "divisor pairing against the Eisenstein coefficients", weights),
        ("orthogonal-group", "order=1440 orbits=(20, 30, 30) central=-1 reflections=30",
         "enumerated isometry group of the quadratic module", group),
        ("orthogonal-bases", "bases=15 incidence=3 isotropic=covered cusps=10",
         "orthogonal-basis combinatorics and isotropic incidence",
         lambda: "bases={0.n_bases} incidence={0.short_incidence} "
                 "isotropic=covered cusps={0.cusps}".format(acct())),
        ("special-vectors", "count=15 checks=ok rank=5 norm=1",
         "sign vectors in the five-dimensional isotypic subspace", special),
        ("lift-witness", "all=signed standard=1111->-1",
         "leading support coefficients of the sign vectors", witnesses),
        ("lattice-layer",
         "trireflection=identity reflection=F3-reflection histograms=equal milgram=(4, 4)",
         "rank-8 even lattices inducing the module and their isometries", lattice_layer),
        ("numeric-transform", "max deviation < 1e-8",
         "modular-transformation spot check at tau = 0.3 + 1.1i", transform),
        ("accounting", "45 + 9 * 5 = 90 = 6 * 15 multiplicity=enumerated",
         "weight bookkeeping over the fifteen bases", accounting),
    )
    out = []
    for name, expected, source, check in table:
        try:
            actual = check()
        except FAILURES as e:  # a failed stage, or a failure in this check alone
            actual = str(e)
        out.append(CheckResult(name, "pass" if actual == expected else "fail",
                               expected, actual, source))
    return out


_LATTICE_ROWS = 40  # M; at tau = 1.3i the rows beyond add under 1e-47


def _shifted_quartic_sum(w: complex) -> complex:
    """sum_k (w + k)^-4 = pi^4 (1 + 2 cos^2 pi w) / (3 sin^4 pi w), w not an integer.

    In z = e^(2 pi i w) that is (8 pi^4 / 3) z (z^2 + 4z + 1) / (z - 1)^4;
    the sum is even in w, so Im w >= 0 is taken, where |z| <= 1 cannot overflow.
    """
    if w.imag < 0:
        w = -w
    z = cmath.exp(2j * math.pi * w)
    return 8 * math.pi ** 4 / 3 * z * (z * z + 4 * z + 1) / (z - 1) ** 4


def _lattice_sum(a: int, b: int, tau: complex) -> complex:
    """sum (m tau + n)^-4 over (m, n) = (a, b) mod 3, rows |m| <= M = _LATTICE_ROWS.

    Row m is 3^-4 sum_k (w + k)^-4 with w = (m tau + b)/3.  With s = |z| =
    e^(-2 pi |m Im tau| / 3) it is at most f(s) = (8 pi^4 / 243) s (s^2 + 4s
    + 1) / (1 - s)^4; f(s)/s grows with s, and the rows of a class on one
    side step s by r = e^(-2 pi |Im tau|), so the rows |m| > M add at most
    2 f(s_(M+1)) / (1 - r).  Raises ValueError for the class (0, 0), for
    real tau, where the rows do not decay, and unless that tail is below
    1e-12 of the sum.
    """
    a %= 3
    b %= 3
    if a == 0 and b == 0:
        raise ValueError("the congruence class (0, 0) contains the excluded origin")
    y = abs(tau.imag)
    if y == 0:
        raise ValueError(f"no lattice-sum tail bound at real tau = {tau}: "
                         "the rows do not decay")
    rows = range(-_LATTICE_ROWS, _LATTICE_ROWS + 1)
    total = sum(_shifted_quartic_sum((m * tau + b) / 3) for m in rows if m % 3 == a) / 81
    s = math.exp(-2 * math.pi * (_LATTICE_ROWS + 1) * y / 3)
    r = math.exp(-2 * math.pi * y)
    tail = 2 * 8 * math.pi ** 4 / 243 * s * (s * s + 4 * s + 1) / (1 - s) ** 4 / (1 - r)
    if not tail < 1e-12 * abs(total):
        raise ValueError(f"lattice-sum tail bound {tail:.3e} is not below 1e-12 "
                         f"of the sum at tau = {tau}")
    return total


def cmd_verify_all(args) -> int:
    checks = run_checks()
    failed = sum(c.status != "pass" for c in checks)
    if args.format == "json":
        _emit_json({"checks": [c._asdict() for c in checks],
                    "passed": len(checks) - failed, "failed": failed})
        return 1 if failed else 0
    for c in checks:
        if c.status == "pass":
            print(f"[PASS] {c.name}: {c.actual} ({c.source})")
        else:
            print(f"[FAIL] {c.name}: expected {c.expected}, got {c.actual} ({c.source})")
    print(f"{len(checks)} checks: {len(checks) - failed} passed, {failed} failed")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# argument plumbing


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default text)")
    preset = argparse.ArgumentParser(add_help=False)
    preset.add_argument("--preset", choices=("paper", "alt-decomposition"),
                        default="paper",
                        help="which rank-8 decomposition feeds the module")

    parser = argparse.ArgumentParser(
        prog="triform",
        description="exact verification of the rank-4 module, its metaplectic "
                    "action, and the product weights")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("classify", parents=[common, preset],
                   help="the 81 elements by type")
    sub.add_parser("pairing-table", parents=[common, preset],
                   help="pairing multiplicity table")
    sub.add_parser("weil", parents=[common],
                   help="generator action, traces, aggregated dual")
    sub.add_parser("character", parents=[common],
                   help="character table and decomposition multiplicities")
    p = sub.add_parser("dimension", parents=[common],
                       help="dimension report for the aggregated action")
    p.add_argument("--weight", type=int, default=4,
                   help="modular weight (at least 3, default 4)")
    p = sub.add_parser("eisenstein", parents=[common],
                       help="normalized Eisenstein combination")
    p.add_argument("--precision", type=int, default=30,
                   help="expansion depth in thirds (at least 3, default 30)")
    p = sub.add_parser("borcherds", parents=[common],
                       help="product weights for a root divisor")
    p.add_argument("--divisor", choices=("long", "short"), required=True,
                   help="which root divisor")
    sub.add_parser("special-vectors", parents=[common],
                   help="the fifteen sign vectors and their verification")
    sub.add_parser("accounting", parents=[common],
                   help="basis and weight bookkeeping")
    sub.add_parser("verify-all", parents=[common],
                   help="run every frozen-value check")
    return parser


_HANDLERS = {
    "classify": cmd_classify,
    "pairing-table": cmd_pairing_table,
    "weil": cmd_weil,
    "character": cmd_character,
    "dimension": cmd_dimension,
    "eisenstein": cmd_eisenstein,
    "borcherds": cmd_borcherds,
    "special-vectors": cmd_special_vectors,
    "accounting": cmd_accounting,
    "verify-all": cmd_verify_all,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "precision", 3) < 3:  # 3 thirds reach every component's leading term
        parser.error("--precision must be at least 3")
    if getattr(args, "weight", 3) < 3:  # the dimension formula needs k >= 3
        parser.error("--weight must be at least 3")
    try:
        return _HANDLERS[args.command](args)
    except FAILURES as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def entry() -> None:
    """The `triform` command: `main`, then exit past the teardown collections.

    triform opens no file, so an OSError here is a failed write to stdout
    (a full device, a closed pipe): it gives one `error:` line on stderr and
    exit 1, and stdout is pointed at os.devnull so the flush at shutdown
    finds nothing left to fail on.  gc.freeze() leaves the collections
    CPython runs at shutdown nothing to scan; flushing, atexit and module
    teardown still run.  Callers that run `main` in-process keep neither.
    """
    try:
        rc = main()
        sys.stdout.flush()
    except OSError as e:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write the output: {e}", file=sys.stderr)
        rc = 1
    gc.freeze()
    sys.exit(rc)


if __name__ == "__main__":
    entry()
