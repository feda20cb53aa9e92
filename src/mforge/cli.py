"""Command line front end.

Exit codes: 0 for pass/found/representable, 1 for fail/absent, 2 for
usage or schema problems.  Reports are JSON lines (one case per line,
summary last) so they diff cleanly between runs.

Corpus caps can be set with --caps "max_ground=32,max_rank=6" or the
MFORGE_CAPS environment variable (same syntax, --caps wins).
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from dataclasses import replace

from .constructions import (
    NamedMatroid,
    ag,
    density_witness,
    free_spike,
    free_swirl,
    pg,
    principal_geometry_extension,
    theta_graph,
    two_sum_chain,
    uniform,
)
from .corpus import CorpusCaps
from .errors import MforgeError, SchemaError
from .minors import are_isomorphic, has_minor, iso_is_valid
from .representability import (
    ClassSpec,
    spike_rep_predicate,
    spike_witness_search,
    swirl_rep_predicate,
    swirl_witness_search,
)
from .serialize import load_path, save_path
from .suites import SUITES, run_suite
from .matroid import bits

_CONSTRUCTORS = {
    "pg": pg,
    "ag": ag,
    "uniform": uniform,
    "theta": theta_graph,
    "spike": free_spike,
    "swirl": free_swirl,
    "chain": two_sum_chain,
    "pgext": principal_geometry_extension,
    "witness": density_witness,
}


def _parse_params(tokens: list[str]) -> dict:
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise SchemaError("bad-value", f"parameter {tok!r} is not key=value")
        key, _, val = tok.partition("=")
        out[key] = int(val) if val.lstrip("-").isdigit() else val
    return out


def _check_params(kind: str, params: dict) -> None:
    """Reject parameters that do not fit the constructor's signature."""
    sig = inspect.signature(_CONSTRUCTORS[kind], eval_str=True)
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
    fields = {"max_ground", "max_rank", "max_bases"}
    out = {}
    for tok in text.split(","):
        key, _, val = tok.partition("=")
        key = key.strip()
        if key not in fields:
            raise SchemaError("bad-value", f"unknown cap {key!r}; known: {sorted(fields)}")
        try:
            out[key] = int(val)
        except ValueError:
            raise SchemaError("bad-value", f"cap {key!r} needs an integer, got {val!r}") from None
    return out


def _caps_from(args) -> CorpusCaps:
    caps = CorpusCaps()
    merged = _parse_caps(os.environ.get("MFORGE_CAPS"))
    merged.update(_parse_caps(getattr(args, "caps", None)))
    return replace(caps, **merged) if merged else caps


def _emit(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, sort_keys=True)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_construct(args) -> int:
    if args.kind not in _CONSTRUCTORS:
        raise SchemaError("bad-value", f"unknown construction {args.kind!r}")
    params = _parse_params(args.params)
    _check_params(args.kind, params)
    nm = _CONSTRUCTORS[args.kind](**params)
    m = nm.matroid if isinstance(nm, NamedMatroid) else nm
    if args.out:
        save_path(m, args.out)
    summary = {
        "name": getattr(nm, "name", args.kind),
        "n": m.n,
        "rank": m.full_rank,
        "epsilon": m.epsilon(),
    }
    print(json.dumps(summary, sort_keys=True))
    return 0


def _cmd_eps(args) -> int:
    m = load_path(args.matroid)
    print(
        json.dumps(
            {"n": m.n, "rank": m.full_rank, "epsilon": m.epsilon()}, sort_keys=True
        )
    )
    return 0


def _cmd_density(args) -> int:
    m = load_path(args.matroid)
    q = args.q
    dense = m.is_q_dense(q)  # validates q before the threshold divides by q - 1
    eps = m.epsilon()
    threshold = (q**m.full_rank - 1) // (q - 1)
    print(
        json.dumps(
            {"epsilon": eps, "threshold": threshold, "dense": dense, "q": q},
            sort_keys=True,
        )
    )
    return 0 if dense else 1


def _cmd_has_minor(args) -> int:
    host = load_path(args.host)
    target = load_path(args.target)
    wit = has_minor(host, target)
    if wit is None:
        print(json.dumps({"found": False}))
        return 1
    doc = {
        "found": True,
        "contract": sorted(bits(wit.contract)),
        "delete": sorted(bits(wit.delete)),
        "mapping": list(wit.iso.mapping),
    }
    print(json.dumps(doc, sort_keys=True))
    return 0


def _cmd_iso(args) -> int:
    a = load_path(args.a)
    b = load_path(args.b)
    cert = are_isomorphic(a, b)
    if cert is None:
        print(json.dumps({"isomorphic": False}))
        return 1
    if not iso_is_valid(a, b, cert.mapping):
        raise MforgeError("internal: certificate failed re-verification")
    print(json.dumps({"isomorphic": True, "mapping": list(cert.mapping)}, sort_keys=True))
    return 0


def _cmd_rep(args) -> int:
    if args.family == "spike":
        pred = spike_rep_predicate(args.k, args.q)
        wit = spike_witness_search(args.k, args.q)
    else:
        pred = swirl_rep_predicate(args.k, args.q)
        wit = swirl_witness_search(args.k, args.q)
    doc = {"family": args.family, "k": args.k, "q": args.q, "representable": pred}
    if wit is not None:
        doc["witness"] = {
            "alphas": list(wit.alphas),
            "beta1": wit.beta1,
            "beta2": wit.beta2,
        }
    print(json.dumps(doc, sort_keys=True))
    return 0 if pred else 1


def _parse_ranks(text: str | None) -> frozenset[int]:
    if not text:
        return frozenset()
    return frozenset(int(tok) for tok in text.split(",") if tok)


def _cmd_eventual_base(args) -> int:
    from .representability import eventual_base

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
    caps = _caps_from(args)
    report = run_suite(args.suite, seed=args.seed, jobs=args.jobs, caps=caps)
    lines = [json.dumps(c, sort_keys=True) for c in report.cases]
    summary = {
        "suite": report.suite,
        "pass": report.passed,
        "cases": len(report.cases),
        "failures": sum(1 for c in report.cases if not c["pass"]),
        "seed": report.seed,
        "jobs": report.jobs,
        "elapsed_ms": report.elapsed_ms,
        "prng": report.meta["prng"],
    }
    lines.append(json.dumps(summary, sort_keys=True))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report.passed else 1


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

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", help=f"one of: {', '.join(sorted(SUITES))}")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--caps", help="override corpus caps, e.g. max_ground=32")
    p.add_argument("--out", help="write the JSON-lines report here instead of stdout")
    p.set_defaults(fn=_cmd_verify)

    return top


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (MforgeError, ValueError) as exc:
        print(f"mforge: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"mforge: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
