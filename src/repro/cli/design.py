"""Design verbs: ``list``, ``verify``, ``design``, ``logic`` and ``exists``."""

from __future__ import annotations

import argparse

from repro.analysis import format_turn_table
from repro.cdg import verify_design
from repro.cli import Verb, parse_mesh, record, resolve_design, verb
from repro.core import PartitionSequence, catalog, extract_turns, partition_vc_budget
from repro.topology import Mesh, NAMED_RULES
from repro.topology.classes import resolve_rule, rule_for_design


def cmd_list(args: argparse.Namespace) -> int:
    from repro.experiments import ALL_EXPERIMENTS

    print("experiments:")
    for name in ALL_EXPERIMENTS:
        print(f"  {name}")
    print("\nnamed designs:")
    for name in sorted(catalog.NAMED_DESIGNS):
        print(f"  {name:20s} {catalog.design(name).arrow_notation()}")
    print("\nclass rules:", ", ".join(sorted(NAMED_RULES)))
    return 0


LIST = Verb("list", "list experiments and named designs", cmd_list)


def cmd_verify(args: argparse.Namespace) -> int:
    design, suggested = resolve_design(args.design)
    mesh = parse_mesh(args.mesh)
    rule = resolve_rule(args.rule) if args.rule else rule_for_design(suggested)
    print(f"design: {design}")
    verdict = verify_design(design, mesh, rule)
    print(f"on {mesh!r}: {verdict}")
    return 0 if verdict.acyclic else 1


@verb("verify", "verify a design on a mesh", cmd_verify)
def VERIFY(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("design", help="catalog name or arrow notation")
    parser.add_argument("--mesh", default="8x8")
    parser.add_argument("--rule", default="", help=f"one of: {', '.join(NAMED_RULES)}")


def cmd_design(args: argparse.Namespace) -> int:
    try:
        budget = [int(v) for v in args.budget.split(",")]
    except ValueError:
        raise SystemExit(f"bad VC budget {args.budget!r} (use e.g. 3,2,3)")
    design = partition_vc_budget(budget)
    print("Algorithm 1 output:")
    for part in design:
        print(f"  {part}")
    turns = extract_turns(design)
    print(f"\nturns ({len(turns)}):")
    print(format_turn_table(turns))
    mesh = Mesh(*([4] * min(len(budget), 2) + [3] * max(0, len(budget) - 2)))
    print(f"\nverification on {mesh!r}: {verify_design(design, mesh)}")
    return 0


@verb("design", "run Algorithm 1 on a VC budget", cmd_design)
def DESIGN(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("budget", help="comma-separated VCs per dimension, e.g. 3,2,3")


def cmd_logic(args: argparse.Namespace) -> int:
    from repro.analysis import full_logic_listing
    from repro.routing import TurnTableRouting

    design, suggested = resolve_design(args.design)
    mesh = parse_mesh(args.mesh)
    rule = rule_for_design(suggested)
    routing = TurnTableRouting(mesh, design, rule, label=suggested or "custom")
    print(full_logic_listing(routing, mesh))
    return 0


@verb("logic", "emit the §5.4 if-else routing logic", cmd_logic)
def LOGIC(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("design", help="catalog name or arrow notation (2D)")
    parser.add_argument("--mesh", default="4x4")


def cmd_exists(args: argparse.Namespace) -> int:
    import json
    import time

    from repro.core.arbitrary import verdict_from_turns
    from repro.store import canonical_json, digest, read_json
    from repro.topology.irregular import GraphTopology

    started = time.perf_counter()
    spec = read_json(args.graph)
    if "edges" not in spec:
        raise SystemExit(
            'graph JSON must be an object with an "edges" list;'
            ' optional keys: "nodes", "design"'
        )

    def coord(value: object) -> tuple:
        # Scalar node labels become 1-tuples, the coordinate form
        # GraphTopology expects; labels must be hashable to be nodes.
        label = tuple(value) if isinstance(value, list) else (value,)
        hash(label)
        return label

    # A string or an object iterates too, into labels nobody wrote
    # ({"ab": 1} would load the edge a -> b): require the list shapes.
    pairs, labels = spec["edges"], spec.get("nodes", [])
    if not isinstance(pairs, list) or not all(
        isinstance(pair, list) and len(pair) == 2 for pair in pairs
    ):
        raise SystemExit('"edges" must be a list of [src, dst] pairs')
    try:
        edges = [(coord(u), coord(v)) for u, v in pairs]
    except TypeError:
        raise SystemExit(
            "each edge must be a [src, dst] pair of scalar or coordinate-list node labels"
        )
    try:
        if not isinstance(labels, list):
            raise TypeError
        nodes = [coord(n) for n in labels]
    except TypeError:
        raise SystemExit('"nodes" must be a list of scalar or coordinate-list node labels')

    # The channel-class structure laid over the graph: a partition
    # sequence in arrow notation (CLI flag wins over the file's "design"
    # key).  Default is the single class X+, which makes the existence
    # check a pure wait-graph drain over the raw links.
    design_text = args.design or str(spec.get("design", "")) or "X+"
    topology = GraphTopology(edges, nodes)
    sequence = PartitionSequence.parse(design_text)
    turnset = extract_turns(sequence, validate=False)

    verdict = verdict_from_turns(topology, turnset, sequence.all_channels)
    report = {
        "graph": {"nodes": len(topology.nodes), "edges": len(topology.links)},
        "design": design_text,
        "safe": verdict.safe,
        "wires": verdict.wires,
        "dependencies": verdict.dependencies,
        "core": verdict.core,
        "cycle": list(verdict.cycle),
    }
    graph = canonical_json({"edges": edges, "nodes": nodes, "design": design_text})
    record(
        "exists", "graph:" + digest(graph, 16),
        outcome="ok" if verdict.safe else "cyclic", payload=report,
        wall_s=time.perf_counter() - started,
    )

    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(
            f"graph: {len(topology.nodes)} nodes,"
            f" {len(topology.links)} directed links; design: {design_text}"
        )
        print(verdict.describe())
    return 0 if verdict.safe else 1


@verb(
    "exists",
    "arbitrary-network existence check: does a deadlock-free"
    " routing exist on a user-supplied graph?",
    cmd_exists, groups=("obs",),
)
def EXISTS(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "graph", metavar="GRAPH.json",
        help='JSON file: {"edges": [[src, dst], ...], "nodes": [...],'
        ' "design": "..."} — nodes are scalars or coordinate lists',
    )
    parser.add_argument(
        "--design", default="", metavar="SEQ",
        help="channel-class design in arrow notation laid over the graph"
        " (default: the file's \"design\" key, else the single class X+)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default text)",
    )
