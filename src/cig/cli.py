"""Command-line front end.

One subcommand per library capability, deterministic output, and exit codes
that scripts can branch on: 0 for accepted verifications and completed
queries (a `ci group` sweep cut short by `--budget` among them, with
`exhaustive` false), 1 for rejected certificates, non-CI witnesses and
wreath reports whose blow-up no dichotomy rule explains, 2 for usage and
validation errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, field
from typing import Sequence

from cig import __version__
from cig.ci import (
    ci_pair,
    is_ci_group,
    quotient_ci_certificate,
    verify_wreath_aut_dichotomy,
)
from cig.digraphs import cayley
from cig.groups import FiniteGroup, GroupSpecError, catalog_specs, parse_group_spec
from cig.iso import find_isomorphism
from cig.limits import CapExceeded, Limits


@dataclass
class RunConfig:
    """Fully resolved invocation parameters, embedded in structured output."""

    command: str
    format: str
    limits: Limits
    options: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "format": self.format,
            "search_cap": self.limits.search,
            "aut_cap": self.limits.aut,
            "options": dict(self.options),
        }


def _positive_int(text: str) -> int:
    """Parse a count given on the command line."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _resolve_limits(args: argparse.Namespace) -> Limits:
    """The caps the flags set, and the defaults for the rest."""
    caps = {"search": args.search_cap, "aut": args.aut_cap}
    return Limits(**{name: value for name, value in caps.items() if value is not None})


def _parse_indices(text: str, group: FiniteGroup, what: str) -> frozenset[int]:
    text = text.strip()
    if not text:
        return frozenset()
    out = set()
    for piece in text.split(","):
        piece = piece.strip()
        if not re.fullmatch(r"-?[0-9]+", piece):
            raise ValueError(f"{what}: {piece!r} is not an element index")
        x = int(piece)
        if not 0 <= x < group.order:
            raise ValueError(
                f"{what}: index {x} out of range for {group.name} (order {group.order})"
            )
        out.add(x)
    return frozenset(out)


def _labels(labels: Sequence[str], subset) -> str:
    return "{" + ", ".join(f"{x}:{labels[x]}" for x in sorted(subset)) + "}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cig",
        description="Cayley digraphs, CI tests, and quotient verification.",
        epilog=(
            "Group specs: Z<n>, D<n>, Q8, S<n>, A<n>, file:PATH, and x-products "
            "such as Z2xZ4 (file paths inside products must not contain 'x'). "
            "Element lists are comma-separated indices into the group's "
            "canonical labeling."
        ),
    )
    parser.add_argument("--version", action="version", version=f"cig {__version__}")
    parser.add_argument("--format", choices=("human", "json"), default="human")
    parser.add_argument("--search-cap", type=_positive_int, default=None)
    parser.add_argument("--aut-cap", type=_positive_int, default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    catalog = sub.add_parser("catalog", help="catalog queries")
    catalog_sub = catalog.add_subparsers(dest="subcommand", required=True)
    catalog_list = catalog_sub.add_parser("list", help="list catalog groups")
    catalog_list.add_argument("--max-order", type=_positive_int, default=12)

    cay = sub.add_parser("cayley", help="build a Cayley digraph")
    cay.add_argument("--group", required=True)
    cay.add_argument("--set", dest="connection", required=True)
    cay.add_argument("--emit", choices=("dot", "json"), default=None)

    iso = sub.add_parser("iso", help="isomorphism of two Cayley digraphs")
    iso.add_argument("--group", required=True)
    iso.add_argument("--set1", required=True)
    iso.add_argument("--set2", required=True)

    ci = sub.add_parser("ci", help="CI-pair and CI-group tests")
    ci_sub = ci.add_subparsers(dest="subcommand", required=True)
    pair = ci_sub.add_parser("pair", help="classify one connection-set pair")
    pair.add_argument("--group", required=True)
    pair.add_argument("--set1", required=True)
    pair.add_argument("--set2", required=True)
    pair.add_argument("--mode", choices=("digraph", "graph"), default="digraph")
    group_cmd = ci_sub.add_parser("group", help="exhaustive CI sweep of one group")
    group_cmd.add_argument("--group", required=True)
    group_cmd.add_argument("--mode", choices=("digraph", "graph"), default="digraph")
    group_cmd.add_argument("--budget", type=_positive_int, default=None)

    quotient = sub.add_parser("quotient", help="quotient-construction verification")
    quotient_sub = quotient.add_subparsers(dest="subcommand", required=True)
    verify = quotient_sub.add_parser("verify", help="verify one quotient instance")
    verify.add_argument("--group", required=True)
    verify.add_argument("--normal", required=True, help="generators of the kernel")
    verify.add_argument("--set1", required=True, help="coset representatives in G")
    verify.add_argument("--set2", required=True, help="coset representatives in G")
    verify.add_argument("--mode", choices=("digraph", "graph"), default="digraph")

    wreath = sub.add_parser("wreath", help="wreath-product reports")
    wreath_sub = wreath.add_subparsers(dest="subcommand", required=True)
    aut = wreath_sub.add_parser("aut", help="automorphism group of a wreath product")
    aut.add_argument("--g1-group", required=True)
    aut.add_argument("--g1-set", required=True)
    aut.add_argument("--g2-group", required=True)
    aut.add_argument("--g2-set", required=True)
    return parser


def _emit(config: RunConfig, result: dict, human_lines: list[str]) -> None:
    if config.format == "json":
        envelope = {
            "tool": "cig",
            "version": __version__,
            "config": config.to_json(),
            "result": result,
        }
        sys.stdout.write(json.dumps(envelope, sort_keys=True, separators=(",", ":")) + "\n")
    else:
        for line in human_lines:
            sys.stdout.write(line + "\n")


def _run(args: argparse.Namespace, config: RunConfig) -> int:
    command = config.command

    if command == "catalog.list":
        entries = catalog_specs(args.max_order)
        config.options["max_order"] = args.max_order
        result = {"groups": [{"spec": s, "order": o} for s, o in entries]}
        lines = [f"{s}  (order {o})" for s, o in entries]
        _emit(config, result, lines)
        return 0

    if command == "cayley":
        group = parse_group_spec(args.group)
        connection = _parse_indices(args.connection, group, "--set")
        config.options.update(group=args.group, set=sorted(connection))
        digraph = cayley(group, connection)
        if args.emit == "dot":
            _emit(config, {"dot": digraph.to_dot()}, [digraph.to_dot()])
            return 0
        if args.emit == "json":
            _emit(
                config,
                {"digraph": digraph.to_json()},
                [json.dumps(digraph.to_json(), sort_keys=True)],
            )
            return 0
        result = {
            "order": digraph.order,
            "arc_count": digraph.arc_count,
            "undirected": digraph.is_undirected,
            "loops": digraph.loop_count,
        }
        lines = [
            f"group: {group.name} (order {group.order})",
            f"connection set: {_labels(group.labels, connection)}",
            f"vertices: {digraph.order}",
            f"arcs: {digraph.arc_count}",
            f"undirected: {digraph.is_undirected}",
        ]
        _emit(config, result, lines)
        return 0

    if command == "iso":
        group = parse_group_spec(args.group)
        s1 = _parse_indices(args.set1, group, "--set1")
        s2 = _parse_indices(args.set2, group, "--set2")
        config.options.update(group=args.group, set1=sorted(s1), set2=sorted(s2))
        mapping = find_isomorphism(cayley(group, s1), cayley(group, s2), config.limits)
        result = {
            "isomorphic": mapping is not None,
            "bijection": list(mapping.images) if mapping else None,
        }
        lines = [
            f"isomorphic: {mapping is not None}",
        ]
        if mapping:
            lines.append(f"bijection: {list(mapping.images)}")
        _emit(config, result, lines)
        return 0

    if command == "ci.pair":
        group = parse_group_spec(args.group)
        s1 = _parse_indices(args.set1, group, "--set1")
        s2 = _parse_indices(args.set2, group, "--set2")
        config.options.update(
            group=args.group, set1=sorted(s1), set2=sorted(s2), mode=args.mode
        )
        res = ci_pair(group, s1, s2, mode=args.mode, limits=config.limits)
        lines = [f"verdict: {res.verdict}"]
        if res.alpha:
            lines.append(f"automorphism: {list(res.alpha.images)}")
        if res.iso:
            lines.append(f"isomorphism: {list(res.iso.images)}")
        _emit(config, res.to_json(), lines)
        return 1 if res.verdict == "non_ci_witness" else 0

    if command == "ci.group":
        group = parse_group_spec(args.group)
        config.options.update(group=args.group, mode=args.mode, budget=args.budget)
        verdict = is_ci_group(
            group, mode=args.mode, budget=args.budget, limits=config.limits
        )
        lines = [
            f"group: {group.name} (order {group.order})",
            f"mode: {args.mode}",
            f"is_ci: {verdict.is_ci}",
            f"pairs checked: {verdict.pairs_checked}",
            f"exhaustive: {verdict.exhaustive}",
        ]
        if verdict.witness:
            s1, s2, _ = verdict.witness
            lines.append(
                f"witness: {_labels(group.labels, s1)} vs {_labels(group.labels, s2)}"
            )
        _emit(config, verdict.to_json(), lines)
        return 0 if verdict.is_ci else 1

    if command == "quotient.verify":
        group = parse_group_spec(args.group)
        gens = _parse_indices(args.normal, group, "--normal")
        kernel = group.subgroup_generated(gens)
        reps1 = _parse_indices(args.set1, group, "--set1")
        reps2 = _parse_indices(args.set2, group, "--set2")
        cosets = group.cosets(kernel)  # coset i is element i of G/H
        s1 = frozenset(map(cosets.class_index, reps1))
        s2 = frozenset(map(cosets.class_index, reps2))
        config.options.update(
            group=args.group,
            normal=sorted(kernel),
            set1=sorted(reps1),
            set2=sorted(reps2),
            quotient_set1=sorted(s1),
            quotient_set2=sorted(s2),
            mode=args.mode,
        )
        cert = quotient_ci_certificate(
            group, kernel, s1, s2, mode=args.mode, limits=config.limits
        )
        qlabels = group.coset_labels(cosets)
        lines = [
            f"group: {group.name} (order {group.order})",
            f"kernel: {_labels(group.labels, kernel)}",
            f"quotient sets: {_labels(qlabels, s1)} vs {_labels(qlabels, s2)}",
            f"status: {cert.status}",
        ]
        for name, ok in cert.checks.items():
            lines.append(f"  {'ok' if ok else 'FAIL'}  {name}")
        _emit(config, cert.to_json(), lines)
        if cert.accepted or cert.status == "quotient_not_isomorphic":
            return 0
        return 1

    if command == "wreath.aut":
        g1 = parse_group_spec(args.g1_group)
        g2 = parse_group_spec(args.g2_group)
        s1 = _parse_indices(args.g1_set, g1, "--g1-set")
        s2 = _parse_indices(args.g2_set, g2, "--g2-set")
        config.options.update(
            g1_group=args.g1_group, g1_set=sorted(s1),
            g2_group=args.g2_group, g2_set=sorted(s2),
        )
        report = verify_wreath_aut_dichotomy(cayley(g1, s1), cayley(g2, s2), config.limits)
        lines = [
            f"aut orders: factor1={report.aut_order_1} factor2={report.aut_order_2}",
            f"product aut order: {report.product_aut_order}",
            f"wreath order: {report.wreath_order}",
            f"equal: {report.equal}",
        ]
        if report.dichotomy:
            d = report.dichotomy
            lines.append(
                f"dichotomy: r={d.r} s={d.s} kind={d.inner_kind} "
                f"predicted={d.predicted_order}"
            )
        _emit(config, report.to_json(), lines)
        return 0 if report.equal or report.dichotomy else 1

    raise ValueError(f"unknown command {command!r}")  # unreachable


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    command = args.command
    if getattr(args, "subcommand", None):
        command = f"{args.command}.{args.subcommand}"
    try:
        config = RunConfig(command=command, format=args.format, limits=_resolve_limits(args))
        return _run(args, config)
    except (ValueError, CapExceeded, GroupSpecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
