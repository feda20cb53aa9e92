"""Command line front end.

Exit codes: 0 for pass/found/representable, 1 for fail/absent, 2 for
usage or schema problems and for internal errors.  Reports are JSON lines
(one case per line, summary last) so they diff cleanly between runs.

Corpus caps are set with --caps "max_ground=32,max_rank=6".
"""

from __future__ import annotations

import argparse
import gc
import json
import sys

from .errors import MforgeError, SchemaError

# Kind -> constructor name in mforge.constructions, looked up on use.
_CONSTRUCTORS = {
    "pg": "pg",
    "ag": "ag",
    "uniform": "uniform",
    "theta": "theta_graph",
    "spike": "free_spike",
    "swirl": "free_swirl",
    "chain": "two_sum_chain",
    "pgext": "principal_geometry_extension",
    "witness": "density_witness",
}


def _constructor(kind: str):
    from . import constructions

    return getattr(constructions, _CONSTRUCTORS[kind])


def _parse_params(tokens: list[str]) -> dict:
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise SchemaError("bad-value", f"parameter {tok!r} is not key=value")
        key, _, val = tok.partition("=")
        if key in out:
            raise SchemaError("bad-value", f"parameter {key!r} given twice")
        out[key] = int(val) if val.lstrip("-").isdigit() else val
    return out


def _check_params(kind: str, params: dict) -> None:
    """Reject parameters that do not fit the constructor's signature."""
    import inspect

    sig = inspect.signature(_constructor(kind), eval_str=True)
    names = tuple(sig.parameters)
    extra = set(params) - set(names)
    if extra:
        raise SchemaError("unknown-field", f"{kind} takes {names}, not {sorted(extra)}")
    for name, par in sig.parameters.items():
        if name not in params:
            if par.default is par.empty:
                raise SchemaError("bad-value", f"{kind} needs {name}=")
        elif not isinstance(params[name], par.annotation):
            raise SchemaError(
                "bad-value",
                f"{kind} parameter {name} must be {par.annotation.__name__}, "
                f"got {params[name]!r}",
            )


def _parse_caps(text: str | None) -> dict:
    if not text:
        return {}
    from .records import CorpusCaps

    fields = CorpusCaps.__slots__
    out = {}
    for tok in text.split(","):
        key, _, val = tok.partition("=")
        key = key.strip()
        if key not in fields:
            raise SchemaError("bad-value", f"unknown cap {key!r}; known: {sorted(fields)}")
        if key in out:
            raise SchemaError("bad-value", f"cap {key!r} given twice")
        try:
            out[key] = int(val)
        except ValueError:
            raise SchemaError("bad-value", f"cap {key!r} needs an integer, got {val!r}") from None
        if out[key] < 1:
            raise SchemaError("bad-value", f"cap {key!r} must be at least 1, got {out[key]}")
    return out


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(doc: dict, out: str | None = None) -> None:
    _write(json.dumps(doc, sort_keys=True) + "\n", out)


def _cmd_construct(args) -> int:
    from .serialize import save_path

    if args.kind not in _CONSTRUCTORS:
        raise SchemaError("bad-value", f"unknown construction {args.kind!r}")
    params = _parse_params(args.params)
    _check_params(args.kind, params)
    nm = _constructor(args.kind)(**params)
    m = nm.matroid
    if args.out:
        save_path(m, args.out)
    _emit({"name": nm.name, "n": m.n, "rank": m.full_rank, "epsilon": m.epsilon()})
    return 0


def _cmd_eps(args) -> int:
    from .serialize import load_path

    m = load_path(args.matroid)
    _emit({"n": m.n, "rank": m.full_rank, "epsilon": m.epsilon()})
    return 0


def _cmd_density(args) -> int:
    from .matroid import pg_size
    from .serialize import load_path

    m = load_path(args.matroid)
    threshold = pg_size(args.q, m.full_rank)
    eps = m.epsilon()
    dense = eps > threshold
    _emit({"epsilon": eps, "threshold": threshold, "dense": dense, "q": args.q})
    return 0 if dense else 1


def _cmd_has_minor(args) -> int:
    from .matroid import bits
    from .minors import has_minor, minor_is_valid
    from .serialize import load_path

    host = load_path(args.host)
    target = load_path(args.target)
    wit = has_minor(host, target)
    if wit is None:
        _emit({"found": False})
        return 1
    if not minor_is_valid(host, target, wit):
        raise MforgeError("internal: minor witness failed re-verification")
    doc = {
        "found": True,
        "contract": sorted(bits(wit.contract)),
        "delete": sorted(bits(wit.delete)),
        "mapping": list(wit.iso.mapping),
    }
    _emit(doc)
    return 0


def _cmd_iso(args) -> int:
    from .minors import are_isomorphic, iso_is_valid
    from .serialize import load_path

    a = load_path(args.a)
    b = load_path(args.b)
    cert = are_isomorphic(a, b)
    if cert is None:
        _emit({"isomorphic": False})
        return 1
    if not iso_is_valid(a, b, cert.mapping):
        raise MforgeError("internal: certificate failed re-verification")
    _emit({"isomorphic": True, "mapping": list(cert.mapping)})
    return 0


def _cmd_rep(args) -> int:
    from .representability import family_rep

    pred, wit = family_rep(args.family, args.k, args.q)
    doc = {"family": args.family, "k": args.k, "q": args.q, "representable": pred}
    if wit is not None:
        doc["witness"] = {
            "alphas": list(wit.alphas),
            "beta1": wit.beta1,
            "beta2": wit.beta2,
        }
    _emit(doc)
    return 0 if pred else 1


def _parse_ranks(text: str | None) -> frozenset[int]:
    if not text:
        return frozenset()
    return frozenset(int(tok) for tok in text.split(",") if tok)


def _cmd_eventual_base(args) -> int:
    from .representability import ClassSpec, eventual_base

    spec = ClassSpec(
        line_ell=args.ell,
        spike_ranks=_parse_ranks(args.spikes),
        swirl_ranks=_parse_ranks(args.swirls),
    )
    rep = eventual_base(spec)
    doc = {
        "base": rep.base,
        "certified": rep.certified,
        "blocking": rep.blocking,
        "gaps": list(rep.gaps),
    }
    _emit(doc, args.out)
    return 0 if rep.certified else 1


def _cmd_verify(args) -> int:
    from .records import CorpusCaps

    caps = CorpusCaps(**_parse_caps(args.caps))
    if args.jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {args.jobs}")
    from .suites import run_suite

    report = run_suite(args.suite, seed=args.seed, caps=caps, jobs=args.jobs)
    lines = [json.dumps(c, sort_keys=True) for c in report.cases]
    summary = {
        "suite": report.suite,
        "pass": report.passed,
        "cases": len(report.cases),
        "failures": sum(1 for c in report.cases if not c["pass"]),
        "seed": report.seed,
        "jobs": args.jobs,
        "elapsed_ms": report.elapsed_ms,
        "prng": "mt19937",
    }
    lines.append(json.dumps(summary, sort_keys=True))
    _write("\n".join(lines) + "\n", args.out)
    return 0 if report.passed else 1


class _VerifyHelp(argparse.HelpFormatter):
    """Fills in the suite names only when the verify help is printed."""

    def _get_help_string(self, action):
        if "{suites}" not in action.help:
            return action.help
        from .suites import SUITES

        return action.help.format(suites=", ".join(sorted(SUITES)))


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="mforge", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a named matroid, optionally saving it")
    p.add_argument("kind", help=f"one of: {', '.join(sorted(_CONSTRUCTORS))}")
    p.add_argument("params", nargs="*", help="key=value pairs, e.g. n=3 q=2")
    p.add_argument("--out", help="write the matroid as JSON to this path")
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("eps", help="point count of a matroid file")
    p.add_argument("matroid")
    p.set_defaults(fn=_cmd_eps)

    p = sub.add_parser("density", help="compare point count against the q-threshold")
    p.add_argument("matroid")
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(fn=_cmd_density)

    p = sub.add_parser("has-minor", help="search for a minor matching a target")
    p.add_argument("host")
    p.add_argument("target")
    p.set_defaults(fn=_cmd_has_minor)

    p = sub.add_parser("iso", help="isomorphism test between two matroid files")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(fn=_cmd_iso)

    p = sub.add_parser("rep", help="representability predicate + witness search")
    p.add_argument("family", choices=("spike", "swirl"))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(fn=_cmd_rep)

    p = sub.add_parser("eventual-base", help="smallest eventually-universal field order")
    p.add_argument("--ell", type=int, default=None, help="line-length exclusion bound")
    p.add_argument("--spikes", help="comma-separated spike ranks excluded")
    p.add_argument("--swirls", help="comma-separated swirl ranks excluded")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_eventual_base)

    p = sub.add_parser("verify", help="run a verification suite", formatter_class=_VerifyHelp)
    p.add_argument("suite", help="one of: {suites}")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="run the cases on up to N processes, the caller and forked workers, "
                        "at most one per usable CPU; the report does not depend on N")
    p.add_argument("--caps", help="override corpus caps, e.g. max_ground=32")
    p.add_argument("--out", help="write the JSON-lines report here instead of stdout")
    p.set_defaults(fn=_cmd_verify)

    return top


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (MforgeError, ValueError, OSError) as exc:
        print(f"mforge: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a crash is not the clean negative exit 1
        print(f"mforge: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entry() -> int:
    """`mforge`'s process entry: main, then a heap freeze, so the last collection
    at exit walks nothing (main alone never freezes an in-process caller's heap)."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(entry())
