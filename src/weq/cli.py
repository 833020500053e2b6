"""Command-line front end.

Exit codes: 0 affirmative, 3 negative, 2 parse/usage error or exhausted
budget (an oracle assignment budget, or the `--max-states` budget of the
automaton), 4 unknown verdict or failed guarantee, 5 unsupported instance.

The argument parser is built once per process, on the first `main` call,
and reused: `parse_args` returns a fresh namespace each time, and the
`cmd_*` functions look up what they call at call time.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from . import hunt as hunt_mod
from . import oracle
from ._text import NotText, ParseError, logical_lines, read_text
from .equations import (
    EquationError,
    Instance,
    NotQuadratic,
    exp_solution,
    format_instance,
    parse_instance,
    system_to_single,
)
from .periodicity import (
    TheoremViolation,
    certificate_to_json,
    instantiate,
    load_certificate,
    pumping_certificate,
)
from .semigroup import (
    BUILTIN_NAMES,
    SemigroupError,
    green,
    omega,
    resolve_semigroup,
    stab_L,
    variety_report,
)
from .solution_graph import (
    DEFAULT_MAX_STATES,
    StateBudgetExceeded,
    build,
    dot_lines,
    enumerate_solutions,
    has_infinitely_many,
    is_solvable,
)

EXIT_YES = 0
EXIT_NO = 3
EXIT_USAGE = 2
EXIT_UNKNOWN = 4
EXIT_UNSUPPORTED = 5


def _file_spec(spec: str, base_dir: str) -> str | None:
    """A semigroup spec read relative to `base_dir` as an absolute `file:`
    path, which loads from any directory; None for a builtin."""
    if spec.startswith("builtin:") or spec in BUILTIN_NAMES:
        return None
    return "file:" + os.path.join(base_dir, spec.removeprefix("file:"))


def _load(path: str) -> tuple[Instance, Instance, str | None]:
    """The instance in the file reduced to one equation, the instance as
    written, and for a target loaded from a file its spec as an absolute
    `file:` path (None for a builtin), so that `format_instance` of the
    last two reloads the instance from any directory."""
    text = read_text(path)
    base_dir = os.path.dirname(os.path.abspath(path))
    written = parse_instance(text, base_dir=base_dir)
    ins = system_to_single(written) if len(written.equations) > 1 else written
    spec = [toks[1] for _, toks in logical_lines(text, comment=";") if toks[0] == "semigroup"][-1]
    return ins, written, _file_spec(spec, base_dir)


def _instance_summary(ins: Instance) -> dict:
    syms = ins.symbols
    return {
        "constants": list(syms.constants),
        "variables": list(syms.variables),
        "equations": [str(eq) for eq in ins.equations],
        "semigroup": {"label": ins.mu.target.label, "order": ins.mu.target.order},
        "map": {s: ins.mu.target.names[ins.mu[s]] for s in syms.all_symbols()},
    }


def _run_report(args) -> dict:
    ins, crosscheck = args.instance, args.crosscheck
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    g = build(ins, faithful=args.faithful, max_states=args.max_states)
    timings["build"] = time.perf_counter() - t0
    solvable = is_solvable(g)
    infinite = has_infinitely_many(g)
    t0 = time.perf_counter()
    certificate = None
    if not infinite:
        verdict = "Finite"
    else:
        cert = pumping_certificate(ins, graph=g)
        if cert is None:
            verdict = "Unknown"
        else:
            for m in range(3):  # re-verify before reporting
                instantiate(cert, ins, m)
            verdict = "InfiniteCertified"
            certificate = certificate_to_json(cert)
    timings["certify"] = time.perf_counter() - t0
    report = {
        "instance": _instance_summary(ins),
        "solvable": solvable,
        "infinite": infinite,
        "exp_verdict": verdict,
        "certificate": certificate,
        "graph": g.summary(),
        "timings": timings,
    }
    if crosscheck is not None:
        t0 = time.perf_counter()
        rep = oracle.brute_solutions(ins, crosscheck)
        enum = enumerate_solutions(g, max_word_len=crosscheck, max_states=args.max_states)
        report["oracle_crosscheck"] = {
            "bound": crosscheck,
            "oracle_count": len(rep.solutions),
            "graph_count": len(enum),
            "agree": list(rep.solutions) == enum,
            "max_exp_seen": rep.max_exp_seen,
        }
        timings["crosscheck"] = time.perf_counter() - t0
    return report


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    ins = report["instance"]
    for eq in ins["equations"]:
        print(f"equation: {eq}")
    print(f"semigroup: {ins['semigroup']['label'] or '<custom>'} (order {ins['semigroup']['order']})")
    print(f"satisfiable: {report['solvable']}")
    print(f"infinitely many solutions: {report['infinite']}")
    print(f"exponent verdict: {report['exp_verdict']}")
    if report.get("oracle_crosscheck"):
        oc = report["oracle_crosscheck"]
        print(f"oracle crosscheck at {oc['bound']}: agree={oc['agree']} "
              f"({oc['oracle_count']} solutions, max exp {oc['max_exp_seen']})")


def cmd_check(args) -> int:
    report = _run_report(args)
    _emit(report, args.json)
    if not args.json:
        print("satisfiable" if report["solvable"] else "unsatisfiable")
    return EXIT_YES if report["solvable"] else EXIT_NO


def cmd_infinite(args) -> int:
    report = _run_report(args)
    _emit(report, args.json)
    return EXIT_YES if report["infinite"] else EXIT_NO


def cmd_pump(args) -> int:
    ins = args.instance
    g = build(ins, max_states=args.max_states)
    if args.cert_in:
        with open(args.cert_in, encoding="utf-8") as fh:
            try:
                cert = load_certificate(ins, json.load(fh), graph=g)
            except (ValueError, KeyError, TypeError, AttributeError, RecursionError) as exc:
                # not JSON, JSON nested too deeply to read, or JSON without
                # the certificate's fields and types
                raise EquationError(f"malformed certificate {args.cert_in}: {exc!r}") from exc
    else:
        if not has_infinitely_many(g):
            print("finitely many solutions; nothing to pump")
            return EXIT_NO
        cert = pumping_certificate(ins, graph=g)
        if cert is None:
            print("verdict unknown: no pumpable state, and the constraints are outside "
                  "the supported variety", file=sys.stderr)
            return EXIT_UNKNOWN
    if args.cert_out:
        with open(args.cert_out, "w", encoding="utf-8") as fh:
            json.dump(certificate_to_json(cert), fh, indent=2, sort_keys=True)
            fh.write("\n")
    rows = []
    for m in range(args.m + 1):
        sol = instantiate(cert, ins, m)
        rows.append({
            "m": m,
            "assignment": {v: "".join(w) for v, w in sol.assignment},
            "exp": exp_solution(sol),
        })
    if args.json:
        print(json.dumps({
            "instance": _instance_summary(ins),
            "certificate": certificate_to_json(cert),
            "solutions": rows,
        }, indent=2, sort_keys=True))
    else:
        for row in rows:
            parts = ", ".join(f"{v}={w}" for v, w in sorted(row["assignment"].items()))
            print(f"m={row['m']}: {parts}  (exp {row['exp']})")
    return EXIT_YES


def cmd_solve(args) -> int:
    ins = args.instance
    g = build(ins, faithful=args.faithful, max_states=args.max_states)
    sols = enumerate_solutions(g, max_word_len=args.max_len, max_states=args.max_states)
    if args.json:
        print(json.dumps({
            "instance": _instance_summary(ins),
            "max_len": args.max_len,
            "solutions": [{v: "".join(w) for v, w in s.assignment} for s in sols],
        }, indent=2, sort_keys=True))
    else:
        for s in sols:
            print(", ".join(f"{v}={''.join(w)}" for v, w in s.assignment) or "(empty assignment)")
        print(f"{len(sols)} solution(s) with words up to length {args.max_len}")
    return EXIT_YES if sols else EXIT_NO


def cmd_graph(args) -> int:
    ins = args.instance
    g = build(ins, faithful=args.faithful, max_states=args.max_states)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.writelines(dot_lines(g))
    else:
        sys.stdout.writelines(dot_lines(g))
    if args.json:
        print(json.dumps(g.summary(), indent=2, sort_keys=True))
    return EXIT_YES


def cmd_oracle(args) -> int:
    ins = args.instance
    rep = oracle.brute_solutions(ins, args.max_len, budget=args.budget)
    if args.json:
        print(json.dumps({
            "instance": _instance_summary(ins),
            "bound": rep.bound,
            "max_exp_seen": rep.max_exp_seen,
            "solutions": [{v: "".join(w) for v, w in s.assignment} for s in rep.solutions],
        }, indent=2, sort_keys=True))
    else:
        for s in rep.solutions:
            print(", ".join(f"{v}={''.join(w)}" for v, w in s.assignment) or "(empty assignment)")
        print(f"{len(rep.solutions)} solution(s) up to length {rep.bound}; max exp {rep.max_exp_seen}")
    return EXIT_YES if rep.solutions else EXIT_NO


def cmd_semigroup(args) -> int:
    sg = resolve_semigroup(args.spec, base_dir=os.getcwd())
    gr = green(sg)
    rep = variety_report(sg)
    out = {
        "label": sg.label,
        "order": sg.order,
        "green": {
            "L": [[sg.names[x] for x in c] for c in gr.classesL],
            "R": [[sg.names[x] for x in c] for c in gr.classesR],
            "J": [[sg.names[x] for x in c] for c in gr.classesJ],
            "H": [[sg.names[x] for x in c] for c in gr.classesH],
            "D": [[sg.names[x] for x in c] for c in gr.classesD],
            "regular_D": list(gr.regularD),
        },
        "variety": rep.as_dict(),
    }
    witness_line = None
    if rep.dlg_witness is not None:
        x, u = rep.dlg_witness
        ox = omega(sg, u).element
        witness_line = (
            f"{sg.names[sg.mul(u, x)]} ~L {sg.names[x]} but "
            f"{sg.names[u]}^ω·{sg.names[x]} = {sg.names[sg.mul(ox, x)]}"
        )
        out["dlg_witness"] = witness_line
    if args.stabilizers:
        out["stabilizers"] = {
            sg.names[x]: [sg.name_of(u) for u in sorted(stab_L(sg, x))] for x in sg.elements()
        }
    if args.json:
        print(json.dumps(out, indent=2, sort_keys=True))
        return EXIT_YES
    print(f"semigroup {sg.label or '<custom>'} (order {sg.order})")
    if args.report:
        for kind in ("L", "R", "J", "H", "D"):
            classes = " ".join("{" + ",".join(c) + "}" for c in out["green"][kind])
            print(f"{kind}-classes: {classes}")
        print("regular D-classes:", " ".join(
            "{" + ",".join(c) + "}" for c, r in zip(out["green"]["D"], gr.regularD) if r
        ) or "(none)")
        for key, val in sorted(rep.as_dict().items()):
            print(f"{key}: {val}")
        if witness_line:
            print(f"dlg witness: {witness_line}")
    for name, members in out.get("stabilizers", {}).items():
        print(f"stab_L({name}) = {{{','.join(members)}}}")
    return EXIT_YES


def cmd_hunt(args) -> int:
    sg = resolve_semigroup(args.semigroup, base_dir=os.getcwd())
    # a file target by its absolute path, so that findings replay anywhere
    sg_spec = _file_spec(args.semigroup, os.getcwd()) or args.semigroup
    try:
        report = hunt_mod.run_hunt(
            sg, args.sigma, args.vars, args.max_len,
            budget=args.budget, seed=args.seed,
            findings_path=args.out, sg_spec=sg_spec,
        )
        code = EXIT_YES
    except hunt_mod.BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        report = exc.report
        code = EXIT_USAGE
    if report is not None:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    return code


def _int_in(low: int, high: int | None = None):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its error messages
    return parse


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="weq",
        description="Quadratic word equations with regular constraints in finite semigroups",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, crosscheck=False, faithful=False, graph=True):
        sp.add_argument("path", help="instance file")
        sp.add_argument("--json", action="store_true", help="machine-readable output")
        if graph:
            sp.add_argument("--max-states", type=_int_in(1), default=DEFAULT_MAX_STATES, metavar="N",
                            help="give up once the automaton has more than N states, dead ones "
                                 "included, or the enumeration of solve and --crosscheck more than "
                                 "N (state, patterns) pairs (default %(default)s: at most about "
                                 "0.7 GB RSS for the automaton, 0.5 GB for the enumeration)")
        if crosscheck:
            sp.add_argument("--crosscheck", type=_int_in(1), default=None, metavar="L",
                            help="also compare against the brute-force oracle up to length L")
        if faithful:
            sp.add_argument("--faithful", action="store_true",
                            help="fire the absent-variable rule for every variable, not just the first")

    sp = sub.add_parser("check", help="decide satisfiability")
    common(sp, crosscheck=True, faithful=True)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("infinite", help="decide whether infinitely many solutions exist")
    common(sp, crosscheck=True, faithful=True)
    sp.set_defaults(func=cmd_infinite)

    sp = sub.add_parser("pump", help="emit pumped solutions of growing exponent")
    common(sp)
    sp.add_argument("--m", type=_int_in(0), default=3, help="largest pump count (default 3)")
    sp.add_argument("--cert-out", metavar="FILE", help="write the certificate as JSON")
    sp.add_argument("--cert-in", metavar="FILE", help="verify and reuse a stored certificate")
    sp.set_defaults(func=cmd_pump)

    sp = sub.add_parser("solve", help="enumerate solutions up to a word length")
    common(sp, faithful=True)
    sp.add_argument("--max-len", type=_int_in(1), default=4, metavar="L")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("graph", help="export the solution automaton as DOT")
    common(sp, faithful=True)
    sp.add_argument("--dot", metavar="FILE", help="output file (default: stdout)")
    sp.set_defaults(func=cmd_graph)

    sp = sub.add_parser("oracle", help="brute-force solution enumeration")
    common(sp, graph=False)
    sp.add_argument("--max-len", type=_int_in(1), default=4, metavar="L")
    sp.add_argument("--budget", type=_int_in(0), default=oracle.DEFAULT_BUDGET)
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("semigroup", help="inspect a semigroup")
    sp.add_argument("spec", help="builtin:<name>, file:<path>, or a path")
    sp.add_argument("--report", action="store_true", help="Green's classes and variety table")
    sp.add_argument("--stabilizers", action="store_true", help="also list every L-stabilizer")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_semigroup)

    sp = sub.add_parser("hunt", help="sweep small instances for suspects")
    sp.add_argument("--sigma", type=_int_in(1, len(hunt_mod.CONSTANT_POOL)), default=2,
                    help="number of constants")
    sp.add_argument("--vars", type=_int_in(0, len(hunt_mod.VARIABLE_POOL)), default=2,
                    help="maximum number of variables")
    sp.add_argument("--max-len", type=_int_in(2), default=6, help="maximum |UV|")
    sp.add_argument("--semigroup", default="builtin:trivial")
    sp.add_argument("--budget", type=_int_in(0), default=10000, help="instance budget")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", metavar="FILE", help="findings file (JSON lines)")
    sp.set_defaults(func=cmd_hunt)
    return p


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_YES
    replay = None  # the instance as written and its semigroup spec
    try:
        if "path" in args:  # the commands that read an instance file
            args.instance, *replay = _load(args.path)
        return args.func(args)
    except TheoremViolation as exc:  # the verdict is unknown; the text replays it
        print(f"internal guarantee failed: {exc}", file=sys.stderr)
        if replay is not None:
            print(format_instance(*replay), end="", file=sys.stderr)
        return EXIT_UNKNOWN
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NotQuadratic as exc:
        print(f"unsupported instance: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (oracle.BudgetExceeded, StateBudgetExceeded) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (EquationError, SemigroupError, NotText, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
