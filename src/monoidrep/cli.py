"""Command-line front end: structure and representation reports.

Reports written to stdout are deterministic byte-for-byte for fixed inputs;
timing goes to stderr.  Exit codes: 0 success, 2 parse/usage error
or an unusable path, 3 resource cap exceeded, 4 internal verification failure.
"""

from __future__ import annotations

import argparse
import gc
import math
import sys
import time
from typing import NamedTuple

from . import cliffmunn, elements, green, lattice, linrep, specht

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_VERIFY = 4

_SGL_KINDS = {
    "subsets": "subsets",
    "partitions": "set_partitions",
    "ordperm": "ordered_partitions_zero",
}


class SpecError(ValueError):
    pass


class BuiltMonoid(NamedTuple):
    spec: str
    kind: str  # "S" | "I" | "T" | "SGL" | "gens"
    monoid: elements.FiniteMonoid
    context: object = None  # SGLContext for SGL specs


def parse_and_build(spec_text: str) -> BuiltMonoid:
    parts = spec_text.split(":")
    try:
        if parts[0] in ("S", "I", "T") and len(parts) == 2:
            n = int(parts[1])
            if n < 1:
                raise SpecError("degree must be >= 1")
            if n > 6:
                raise SpecError("degree capped at 6 for desk scale")
            builder = {
                "S": elements.symmetric_group,
                "I": elements.symmetric_inverse_monoid,
                "T": elements.full_transformation_monoid,
            }[parts[0]]
            return BuiltMonoid(spec_text, parts[0], builder(n))
        if parts[0] == "SGL" and len(parts) == 3:
            if parts[1] not in _SGL_KINDS:
                raise SpecError(f"unknown lattice kind {parts[1]!r}")
            n = int(parts[2])
            _, action = lattice.make_lattice(_SGL_KINDS[parts[1]], n)
            monoid, ctx = lattice.sgl_monoid(action)
            return BuiltMonoid(spec_text, "SGL", monoid, ctx)
        if parts[0] == "gens" and len(parts) >= 2:
            return _build_from_file(spec_text, spec_text.split(":", 1)[1])
    except (ValueError, SpecError) as exc:
        raise SpecError(f"bad monoid spec {spec_text!r}: {exc}") from exc
    raise SpecError(f"bad monoid spec {spec_text!r}")


def _build_from_file(spec_text: str, path: str) -> BuiltMonoid:
    with open(path) as fh:
        lines = [ln for ln in map(str.strip, fh) if ln and not ln.startswith("#")]
    if not lines:
        raise SpecError("empty generator file")
    head = lines[0].split()
    if len(head) != 2 or head[0] not in ("S", "I", "T"):
        raise SpecError("first line must be '<S|I|T> <degree>'")
    kind, n = head[0], int(head[1])
    gens = []
    for ln in lines[1:]:
        if kind == "T":
            if not (ln.startswith("[") and ln.endswith("]")):
                raise SpecError(f"bad transformation {ln!r}")
            t = elements.Transformation(int(tok) for tok in ln[1:-1].split(","))
            if t.n != n:
                raise SpecError(f"{ln!r} has degree {t.n}, not the header's {n}")
            gens.append(t)
        else:
            pb = elements.cycle_link_parse(ln, n)
            if kind == "S" and pb.rank != n:
                raise SpecError(f"{ln!r} is not a full permutation")
            gens.append(pb)
    if not gens:
        raise SpecError("no generators given")
    return BuiltMonoid(spec_text, kind, elements.closure(gens))


# -- label text ----------------------------------------------------------------

def fmt_partition(p) -> str:
    return "(" + ",".join(str(x) for x in p) + ")"


def fmt_label(label) -> str:
    """A partition prints as (2,1); a tuple of partitions as ((2),(1))."""
    if label == ():
        return "()"
    if all(isinstance(x, int) for x in label):
        return fmt_partition(label)
    return "(" + ",".join(fmt_partition(p) for p in label) + ")"


def parse_label(text: str):
    """Inverse of fmt_label; unbalanced parentheses are a SpecError."""
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise SpecError(f"bad label {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        return ()
    if inner.startswith("("):
        parts = []
        depth = 0
        start = None
        for k, ch in enumerate(inner):
            if ch == "(":
                if depth == 0:
                    start = k
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth < 0:
                    raise SpecError(f"unbalanced parentheses in label {text!r}")
                if depth == 0:
                    parts.append(parse_label(inner[start:k + 1]))
            elif depth == 0 and ch not in ", ":
                raise SpecError(f"bad label {text!r}")
        if depth:
            raise SpecError(f"unbalanced parentheses in label {text!r}")
        return tuple(parts)
    try:
        return tuple(int(tok) for tok in inner.split(","))
    except ValueError:
        raise SpecError(f"bad label {text!r}") from None


def resolve_jclass(built: BuiltMonoid, text: str) -> int:
    labels = green.apex_labels(built.monoid)
    if text in labels:
        return labels.index(text)
    if text == "constants" and built.kind == "T":
        return labels.index("J1")
    if text.isdigit() and f"J{text}" in labels:
        return labels.index(f"J{text}")
    raise SpecError(f"no J-class {text!r}; available: {', '.join(labels)}")


# -- commands -----------------------------------------------------------------

def cmd_order(built: BuiltMonoid, out) -> int:
    lines = [f"command: order", f"spec: {built.spec}", f"order: {len(built.monoid)}"]
    if built.kind == "SGL":
        report = lattice.sgl_order(built.context.action, built.monoid)
        lines += [
            f"formula: {report.formula_total}",
            f"enumerated: {report.enumerated_total}",
            f"agreement: {'yes' if report.agree else 'no'}",
            "breakdown:",
        ]
        lat = built.context.lattice
        for value, count in report.breakdown:
            lines.append(f"  {lat.text(value)}: {count}")
        if lat.kind == "set_partitions":
            p = lattice.partition_lattice_report(built.context.action, report)
            lines.append(f"young_index_total: {p.young_formula_value}")
            lines.append(
                f"young_index_agreement: {'yes' if p.matches_young_formula else 'no'}"
            )
            lines += p.flags()
    print("\n".join(lines), file=out)
    return EXIT_OK


def _subgroup_order(classes, j: int) -> int:
    """The order of the maximal subgroups at J-class j, all isomorphic: the
    H-class of its first idempotent, or 0 when it holds none."""
    idems = classes.jclass_idempotents[j]
    return len(classes.hclasses[classes.hclass_of[idems[0]]]) if idems else 0


def _eggbox_lines(built: BuiltMonoid, j: int, labels):
    monoid = built.monoid
    classes, _ = green.monoid_green(monoid)
    box = green.eggbox(monoid, classes, j)
    size = len(classes.jclasses[j])
    lines = [
        f"jclass {labels[j]}: size {size}, rows {len(box.row_rclasses)}, "
        f"cols {len(box.col_lclasses)}, subgroup order {_subgroup_order(classes, j)}"
    ]
    for row, irow in zip(box.grid, box.idempotent_cells):
        cells = [("*" if flag else "") + str(len(cell)) for cell, flag in zip(row, irow)]
        lines.append("  " + " ".join(cells))
    return lines


def cmd_eggbox(built: BuiltMonoid, jtext, fmt, out) -> int:
    if fmt == "graph" and jtext is not None:
        raise SpecError("--format graph prints the whole J-poset; it takes no --jclass")
    monoid = built.monoid
    classes, poset = green.monoid_green(monoid)
    labels = green.apex_labels(monoid)
    wanted = range(len(labels)) if jtext is None else [resolve_jclass(built, jtext)]
    lines = [f"command: eggbox", f"spec: {built.spec}", f"format: {fmt}",
             f"jclasses: {len(labels)}"]
    if fmt == "graph":
        for j in range(len(labels)):
            lines.append(f"node {labels[j]} size={len(classes.jclasses[j])} "
                         f"subgroup={_subgroup_order(classes, j)}")
        for low, high in poset.covers():
            lines.append(f"edge {labels[low]} {labels[high]}")
    else:
        lines.append("poset:")
        for low, high in poset.covers():
            lines.append(f"  {labels[low]} < {labels[high]}")
        for j in wanted:
            lines.extend(_eggbox_lines(built, j, labels))
    print("\n".join(lines), file=out)
    return EXIT_OK


def cmd_irreps(built: BuiltMonoid, check: bool, out) -> int:
    if built.kind == "T":
        print(
            "error: irreducible catalogs are only built for inverse monoids; "
            "full transformation monoids are not semisimple in characteristic 0 "
            "(the mapping representation has an invariant hyperplane but no "
            "invariant complement), so no complete catalog exists here",
            file=sys.stderr,
        )
        return EXIT_PARSE
    catalog = cliffmunn.cm_catalog(built.monoid)
    lines = [
        f"command: irreps",
        f"spec: {built.spec}",
        f"entries: {len(catalog)}",
        "columns: apex label dim",
    ]
    for en in catalog:
        lines.append(f"{en.apex_label} {fmt_label(en.label)} {en.dim}")
    total = sum(en.dim ** 2 for en in catalog)
    lines.append(f"sum_dim_sq: {total}")
    lines.append(f"order: {len(built.monoid)}")
    if check:
        lines.append(f"check_complete: {'yes' if total == len(built.monoid) else 'no'}")
        passed = sum(1 for en in catalog if cliffmunn.cm_roundtrip_check(built.monoid, en))
        lines.append(f"check_roundtrips: {passed}/{len(catalog)}")
        if total != len(built.monoid) or passed != len(catalog):
            print("\n".join(lines), file=out)
            return EXIT_VERIFY
    print("\n".join(lines), file=out)
    return EXIT_OK


def _build_rep(built: BuiltMonoid, build: str):
    parts = build.split(":")
    if parts[0] == "mapping" and len(parts) == 1:
        if built.kind == "SGL":
            raise SpecError("mapping representations exist for S:, I:, T: specs")
        return linrep.mapping_rep(built.monoid), built.monoid
    if parts[0] == "specht" and len(parts) == 2:
        if built.kind != "S":
            raise SpecError("specht representations live over S:n specs")
        lam = parse_label(parts[1])
        n = built.monoid.elements[0].n
        if len(built.monoid) != math.factorial(n):
            # a generator file may close to a proper subgroup
            raise SpecError(f"a Specht module needs all of S_{n}; the spec closes "
                            f"to {len(built.monoid)} elements")
        if lam not in specht.partitions(n):
            raise SpecError(f"{fmt_label(lam)} is not a partition of {n}")
        return specht.specht_rep(lam, group=built.monoid).rep, built.monoid
    if parts[0] == "induce" and len(parts) == 3:
        if built.kind not in ("I", "SGL"):
            raise SpecError("induction needs an inverse monoid spec (I: or SGL:)")
        j = resolve_jclass(built, parts[1])
        label = parse_label(parts[2])
        for e, _, found, group_rep in cliffmunn.jclass_irreps(built.monoid, j):
            if found == label or found == (label,):
                return cliffmunn.induce(built.monoid, e, group_rep), built.monoid
        raise SpecError(f"no irreducible {parts[2]} at J-class {parts[1]}")
    if parts[0] == "reduce" and len(parts) == 3 and parts[1] == "mapping":
        if built.kind == "SGL":
            raise SpecError("reduce:mapping needs an S:, I: or T: spec")
        j = resolve_jclass(built, parts[2])
        idems = green.monoid_green(built.monoid)[0].jclass_idempotents[j]
        if not idems:  # a generator file may close to a non-regular monoid
            raise SpecError(f"J-class {parts[2]} holds no idempotent to reduce at")
        red = cliffmunn.reduce_rep(linrep.mapping_rep(built.monoid), idems[0])
        if red.rep is None:
            raise SpecError(f"the reduction at J-class {parts[2]} is zero")
        return red.rep, red.group
    raise SpecError(f"unknown build {build!r}")


def cmd_rep(built: BuiltMonoid, build: str, out_path, out) -> int:
    # the Representation constructor has proved the homomorphism law on
    # these immutable matrices, which are the ones written below
    rep, carrier_monoid = _build_rep(built, build)
    payload = linrep.serialize_representation(rep, monoid_label=built.spec)
    lines = [
        f"command: rep",
        f"spec: {built.spec}",
        f"build: {build}",
        f"dim: {rep.dim}",
        f"elements: {len(rep.monoid)}",
        "verified: yes",
    ]
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(payload)
        lines.append(f"out: {out_path}")
        print("\n".join(lines), file=out)
    else:
        lines.append("payload:")
        print("\n".join(lines), file=out)
        out.write(payload)
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monoidrep",
        description="Finite monoid structure and exact irreducible representations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("order", help="order of the monoid (formula vs enumeration for SGL)")
    p.add_argument("spec")

    p = sub.add_parser("eggbox", help="J-class poset and eggbox grids")
    p.add_argument("spec")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--jclass", help="one J-class by label (e.g. J2, constants, (2,1))")
    group.add_argument("--all", action="store_true", help="all J-classes (default)")
    p.add_argument("--format", choices=("text", "graph"), default="text")

    p = sub.add_parser("irreps", help="catalog of irreducible representations")
    p.add_argument("spec")
    p.add_argument("--check", action="store_true",
                   help="verify completeness and reduction/induction roundtrips")

    p = sub.add_parser("rep", help="build and serialize one representation")
    p.add_argument("spec")
    p.add_argument("--build", required=True,
                   help="mapping | specht:<shape> | induce:<jclass>:<label> | reduce:mapping:<jclass>")
    p.add_argument("--out", help="write the payload to this file")
    return parser


def run(argv, out=None) -> int:
    out = out or sys.stdout
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code else EXIT_OK
    try:
        built = parse_and_build(args.spec)
        if args.command == "order":
            return cmd_order(built, out)
        if args.command == "eggbox":
            return cmd_eggbox(built, args.jclass, args.format, out)
        if args.command == "irreps":
            return cmd_irreps(built, args.check, out)
        if args.command == "rep":
            return cmd_rep(built, args.build, args.out, out)
        raise AssertionError(f"unhandled command {args.command}")
    except elements.ClosureCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (SpecError, elements.ElementParseError, OSError, cliffmunn.CatalogError) as exc:
        # OSError: a user-named path (generator file, --out) is missing,
        # a directory or unreadable.  A clause is evaluated only when an
        # exception reaches it, so naming cliffmunn here loads it on no
        # successful run.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except Exception as exc:  # verification failures are internal bugs
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


def main() -> None:
    # The objects alive at entry (the interpreter, the package, elements
    # and cli) live until exit; frozen, they leave every later collection,
    # the one at interpreter exit included.  Garbage made by the run is
    # still collected.  What the command loaded (the lazy layers, and the
    # exact stacks and Green classes it built) is frozen once it returns,
    # so the collection at exit does not walk them either; the run has
    # written and closed its output by then.
    # Library users and test processes keep normal collection.
    gc.freeze()
    start = time.monotonic()
    code = run(sys.argv[1:])
    gc.freeze()
    print(f"# elapsed: {time.monotonic() - start:.3f}s", file=sys.stderr)
    sys.exit(code)


if __name__ == "__main__":
    main()
