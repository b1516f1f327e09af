"""Command line interface.

Subcommands: analyze (structure report), construct (build and write a
certificate), verify (re-check a certificate), cover (covering numbers of
a conjugacy class), catalog (list built-ins).  Exit codes: 0 success or
valid, 1 invalid certificate, failed precondition, exhausted search or
exhausted memory, 2 usage or parse error.

Each handler imports the layers it calls, so that a process compiles only
those: `verify` loads the verifier and not the builder, `catalog` neither.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .errors import InputError, PreconditionError, SearchError, SizeLimitError
from .groups import DEFAULT_BUDGET, ENUMERATION_CAP


def _add_common(parser):
    parser.add_argument("--cap", type=int, default=ENUMERATION_CAP,
                        help="enumeration cap (default %(default)s)")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perfectcover",
        description="perfect subdirect covers of finite perfect groups",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="print the structure report of a group")
    p.add_argument("group", help="group file path or catalog:<NAME>")
    _add_common(p)

    p = sub.add_parser("construct", help="run the construction on a family file")
    p.add_argument("family", help="family file path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="cover generator budget (default %(default)s)")
    p.add_argument("-o", "--output", default="certificate.json")
    _add_common(p)

    p = sub.add_parser("verify", help="re-check a certificate")
    p.add_argument("certificate")
    p.add_argument("--force", action="store_true",
                   help="verify despite a tool version mismatch")
    _add_common(p)

    p = sub.add_parser("cover", help="covering number of a conjugacy class")
    p.add_argument("group", help="group file path or catalog:<NAME>")
    p.add_argument("--class", dest="class_rep", default=None,
                   help="class representative in cycle notation "
                        "(default: first nonidentity class)")
    p.add_argument("--witness", default=None,
                   help="also print a factorization of this element as a "
                        "product of class members")
    _add_common(p)

    p = sub.add_parser("catalog", help="list built-in groups")
    return parser


def cmd_analyze(args) -> int:
    from .groupfile import resolve_group
    from .structure import star_series

    G = resolve_group(args.group)
    report = star_series(G, cap=args.cap)
    for i, term in enumerate(report.series):
        print(f"G_{i} |G_{i}|={term.order}")
    print(
        f"level={report.level} perfect={'true' if report.perfect else 'false'} "
        f"dmin={report.dmin_text}"
    )
    if report.abelianization_invariants:
        invariants = ",".join(str(x) for x in report.abelianization_invariants)
        print(f"abelianization={invariants}")
    return 0


def cmd_construct(args) -> int:
    from .certificates import dumps_certificate, serialize_certificate
    from .construction import construct
    from .groupfile import parse_family_file

    names, groups, d, k = parse_family_file(args.family)
    cert = construct(
        groups, d, k, names=names, seed=args.seed, budget=args.budget, cap=args.cap
    )
    data = serialize_certificate(cert)
    with open(args.output, "w") as fh:
        fh.write(dumps_certificate(data))
    gamma_order = cert.gamma.order if cert.gamma is not None else 1
    print(f"certificate written to {args.output}")
    print(f"gamma order {gamma_order}, {len(cert.levels)} level(s), seed {cert.seed}")
    return 0


def cmd_verify(args) -> int:
    from .certificates import load_certificate, verify_certificate

    data = load_certificate(args.certificate)
    report = verify_certificate(data, force_version=args.force, cap=args.cap)
    if report.message:
        print(report.message)
    for line in report.lines():
        print(line)
    return 0 if report.valid else 1


def cmd_cover(args) -> int:
    from .covering import covering_number, decompose_conjugate_product
    from .groupfile import resolve_group
    from .groups import conjugacy_class_of, conjugacy_classes
    from .perms import Permutation, format_cycles, parse_cycles

    S = resolve_group(args.group)
    # parse every argument before printing anything
    target = None if args.witness is None else parse_cycles(args.witness, S.degree)
    if args.class_rep is None:
        # the least nonidentity element; the first class is the identity's
        others = [y for cls in conjugacy_classes(S, args.cap)[1:] for y in cls]
        if not others:
            raise PreconditionError("the trivial group has no nonidentity class")
        rep = Permutation(min(others))
    else:
        rep = parse_cycles(args.class_rep, S.degree)
    cls = conjugacy_class_of(S, rep)
    cert = covering_number(S, cls, args.cap)
    print(f"class of {format_cycles(rep)}: size {len(cls)}")
    print(f"covering number e={cert.e}")
    print("power sizes: " + " ".join(str(s) for s in cert.power_sizes))
    if target is not None:
        rows = decompose_conjugate_product(S, target, [rep], cert.e, args.cap)
        parts = []
        for t in range(cert.e):
            conj = rows[t][0]
            parts.append(f"{format_cycles(rep)}^{format_cycles(conj)}")
        print(f"{format_cycles(target)} = " + " * ".join(parts))
    return 0


def cmd_catalog(args) -> int:
    from . import catalog

    for name in catalog.names():
        entry = catalog.CATALOG[name]
        print(
            f"{name:8s} degree={entry.degree:3d} order={entry.order:7d}  "
            f"{entry.provenance}"
        )
    return 0


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    handlers = {
        "analyze": cmd_analyze,
        "construct": cmd_construct,
        "verify": cmd_verify,
        "cover": cmd_cover,
        "catalog": cmd_catalog,
    }
    try:
        return handlers[args.command](args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PreconditionError, SizeLimitError, SearchError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
