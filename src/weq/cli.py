"""Command-line front end.

Exit codes: 0 affirmative, 3 negative, 2 parse/usage error or exhausted
budget (an oracle assignment budget, the `--max-states` budget of the
automaton, or memory), 4 unknown verdict or failed guarantee, 5 unsupported
instance.

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
from json.encoder import encode_basestring_ascii as json_str  # json.dumps(str), in C

from . import hunt as hunt_mod
from . import oracle
from ._text import NotText, ParseError, read_text
from .equations import (
    BudgetExceeded,
    EquationError,
    Instance,
    NotQuadratic,
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
    SemigroupError,
    green,
    is_dlg,
    omega,
    resolve_semigroup,
    stab_L,
    variety_report,
)
from .solution_graph import (
    DEFAULT_MAX_STATES,
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

# made at import: once memory has run out, formatting a message may fail too
OUT_OF_MEMORY = b"budget exceeded: out of memory\n"


def _load(path: str) -> tuple[Instance, Instance]:
    """The instance in the file reduced to one equation, and the instance as
    written, whose `format_instance` text reloads it from any directory."""
    written = parse_instance(read_text(path), base_dir=os.path.dirname(os.path.abspath(path)))
    ins = system_to_single(written) if len(written.equations) > 1 else written
    return ins, written


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
    g = build(ins, max_states=args.max_states)
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
    # each row is written before the next is made; the JSON is laid out as
    # json.dumps(..., indent=2, sort_keys=True) lays out the whole document
    write = sys.stdout.write
    for m in range(args.m + 1):
        sol = instantiate(cert, ins, m)
        words = [(v, "".join(w)) for v, w in sol.assignment]  # in variable order, as Solution keeps them
        if not args.json:
            write(f"m={m}: {', '.join(f'{v}={w}' for v, w in words)}  (exp {sol.exponent})\n")
            continue
        if m == 0:  # "solutions" sorts last, so the head ends with '"solutions": ['
            write(json.dumps({
                "instance": _instance_summary(ins),
                "certificate": certificate_to_json(cert),
                "solutions": [],
            }, indent=2, sort_keys=True)[:-len("]\n}")])
        pairs = ",\n".join(f"        {json_str(v)}: {json_str(w)}" for v, w in words)
        write(f'{"," if m else ""}\n    {{\n      "assignment": {{\n{pairs}\n      }},\n'
              f'      "exp": {sol.exponent},\n      "m": {m}\n    }}')
    if args.json:
        write("\n  ]\n}\n")
    return EXIT_YES


def _print_solutions(sols, as_json: bool, head: dict, summary: str) -> None:
    """The solutions as JSON under the `head` fields, or a line each and `summary`."""
    if as_json:
        print(json.dumps({
            **head,
            "solutions": [{v: "".join(w) for v, w in s.assignment} for s in sols],
        }, indent=2, sort_keys=True))
    else:
        for s in sols:
            print(", ".join(f"{v}={''.join(w)}" for v, w in s.assignment) or "(empty assignment)")
        print(summary)


def cmd_solve(args) -> int:
    ins = args.instance
    g = build(ins, max_states=args.max_states)
    sols = enumerate_solutions(g, max_word_len=args.max_len, max_states=args.max_states)
    _print_solutions(sols, args.json, {"instance": _instance_summary(ins), "max_len": args.max_len},
                     f"{len(sols)} solution(s) with words up to length {args.max_len}")
    return EXIT_YES if sols else EXIT_NO


def cmd_graph(args) -> int:
    ins = args.instance
    g = build(ins, max_states=args.max_states)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.writelines(dot_lines(g))
    elif not args.json:  # --json prints one document, the summary
        sys.stdout.writelines(dot_lines(g))
    if args.json:
        print(json.dumps(g.summary(), indent=2, sort_keys=True))
    return EXIT_YES


def cmd_oracle(args) -> int:
    ins = args.instance
    rep = oracle.brute_solutions(ins, args.max_len, budget=args.budget)
    head = {"instance": _instance_summary(ins), "bound": args.max_len, "max_exp_seen": rep.max_exp_seen}
    _print_solutions(rep.solutions, args.json, head,
                     f"{len(rep.solutions)} solution(s) up to length {args.max_len}; max exp {rep.max_exp_seen}")
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
            "D": [[sg.names[x] for x in c] for c in gr.classesJ],
            "regular_D": list(gr.regularD),
        },
        "variety": rep.as_dict(),
    }
    witness_line = None
    if not rep.dlg:
        x, u = is_dlg(sg).witness
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


def _print_hunt_report(report) -> None:
    print(json.dumps(report.as_dict(), indent=2, sort_keys=True))


def cmd_hunt(args) -> int:
    sg = resolve_semigroup(args.semigroup, base_dir=os.getcwd())
    _print_hunt_report(hunt_mod.run_hunt(
        sg, args.sigma, args.vars, args.max_len,
        budget=args.budget, seed=args.seed, findings_path=args.out,
    ))
    return EXIT_YES


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


@functools.lru_cache(maxsize=1)
def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="weq",
        description="Quadratic word equations with regular constraints in finite semigroups",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, crosscheck=False, graph=True):
        sp.add_argument("path", help="instance file")
        sp.add_argument("--json", action="store_true", help="machine-readable output")
        if graph:
            sp.add_argument("--max-states", type=_int_in(1), default=DEFAULT_MAX_STATES, metavar="N",
                            help="give up once the automaton has more than N states, dead ones "
                                 "included, or the enumeration of solve and --crosscheck more than "
                                 "N (state, patterns) pairs, solutions and words (default "
                                 "%(default)s: at most about 0.6 GB RSS for the automaton, 0.4 GB "
                                 "for the enumeration)")
        if crosscheck:
            sp.add_argument("--crosscheck", type=_int_in(1), default=None, metavar="L",
                            help="also compare against the brute-force oracle up to length L")

    sp = sub.add_parser("check", help="decide satisfiability")
    common(sp, crosscheck=True)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("infinite", help="decide whether infinitely many solutions exist")
    common(sp, crosscheck=True)
    sp.set_defaults(func=cmd_infinite)

    sp = sub.add_parser("pump", help="emit pumped solutions of growing exponent")
    common(sp)
    sp.add_argument("--m", type=_int_in(0), default=3, help="largest pump count (default 3)")
    sp.add_argument("--cert-out", metavar="FILE", help="write the certificate as JSON")
    sp.add_argument("--cert-in", metavar="FILE", help="verify and reuse a stored certificate")
    sp.set_defaults(func=cmd_pump)

    sp = sub.add_parser("solve", help="enumerate solutions up to a word length")
    common(sp)
    sp.add_argument("--max-len", type=_int_in(1), default=4, metavar="L")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("graph", help="export the solution automaton as DOT")
    common(sp)
    sp.add_argument("--dot", metavar="FILE",
                    help="output file (default: stdout, or none with --json, which prints the summary)")
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
    written = None  # the instance as written, whose text replays a failure
    try:
        if "path" in args:  # the commands that read an instance file
            args.instance, written = _load(args.path)
        return args.func(args)
    except TheoremViolation as exc:  # the verdict is unknown; the text replays it
        print(f"internal guarantee failed: {exc}", file=sys.stderr)
        if hasattr(exc, "report"):  # a hunt's partial report and failing instance
            _print_hunt_report(exc.report)
            written = exc.instance
        if written is not None:
            print(format_instance(written), end="", file=sys.stderr)
        return EXIT_UNKNOWN
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NotQuadratic as exc:
        print(f"unsupported instance: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        if hasattr(exc, "report"):  # a hunt's partial report
            _print_hunt_report(exc.report)
        return EXIT_USAGE
    except (EquationError, SemigroupError, NotText, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:  # what the failed run allocated is freed with its frames
        os.write(2, OUT_OF_MEMORY)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
