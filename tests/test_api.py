"""The public API of ``loopext``, frozen: its package-level names, the
public attributes of its public classes, and the optional or keyword-only
parameters of each public function, class and method, one per line, so that
any later addition or removal shows as a one-line diff of this file."""

import inspect
import pathlib
import types

import loopext

PUBLIC_API = [
    "AbelianGroup",
    "AbelianGroup.add_table",
    "AbelianGroup.element_orders",
    "AbelianGroup.index_of",
    "AbelianGroup.neg_table",
    "AbelianGroup.orders",
    "AbelianGroup.size",
    "AbelianGroup.tuple_of",
    "AutomorphismGroup",
    "AutomorphismGroup.compose_indices",
    "AutomorphismGroup.group",
    "AutomorphismGroup.identity_index",
    "AutomorphismGroup.index_of",
    "AutomorphismGroup.inverses",
    "AutomorphismGroup.invert_index",
    "AutomorphismGroup.products",
    "CELL_MAPS",
    "CardinalityCertificate",
    "CardinalityCertificate.feasible",
    "CardinalityCertificate.h",
    "CardinalityCertificate.k",
    "CardinalityCertificate.l",
    "ChoiceSource",
    "ChoiceSource.count",
    "ChoiceSource.pick",
    "ChoiceSource.seed",
    "DEFAULT_SIZE_CAP",
    "FiniteLoop",
    "FiniteLoop.is_associative",
    "FiniteLoop.is_commutative",
    "FiniteLoop.left_inverse",
    "FiniteLoop.properties",
    "FiniteLoop.right_inverse",
    "FiniteLoop.size",
    "FiniteLoop.table",
    "LoopCocycle",
    "LoopCocycle.autgroup",
    "LoopCocycle.group",
    "LoopCocycle.loop",
    "LoopCocycle.ptable",
    "LoopCocycle.qtable",
    "LoopPropertyReport",
    "LoopPropertyReport.has_ip",
    "LoopPropertyReport.has_lip",
    "LoopPropertyReport.has_order3_element",
    "LoopPropertyReport.has_rip",
    "LoopPropertyReport.inverse_map",
    "LoopPropertyReport.inverse_mismatch",
    "LoopPropertyReport.lip_witness",
    "LoopPropertyReport.rip_witness",
    "LoopPropertyReport.two_sided_inverses_coincide",
    "OrbitDecomposition",
    "OrbitDecomposition.blocks",
    "OrbitDecomposition.orbits",
    "OrbitDecomposition.symmetries",
    "PAIR_MAPS",
    "analyze_properties",
    "build_extension",
    "check_cip",
    "check_equivariance",
    "check_ip_conditions",
    "check_lip_conditions",
    "check_rip_conditions",
    "construct_ip_cocycle",
    "construct_lip_cocycle",
    "construct_pq",
    "construct_rip_cocycle",
    "enumerate_automorphisms",
    "enumerate_feasible",
    "feasible_cardinality",
    "gamma_orbits",
    "is_commutative_extension",
    "is_normal_subloop",
    "is_strongly_linear",
    "make_cocycle",
    "make_group",
    "make_loop",
    "parse_group_spec",
    "phi_orbits",
    "psi_orbits",
    "quotient_loop",
    "random_cocycle",
    "sigma_set",
]


def public_api():
    names = []
    for name, value in sorted(vars(loopext).items()):
        if name.startswith("_") or isinstance(value, types.ModuleType):
            continue
        names.append(name)
        if isinstance(value, type):
            names += [f"{name}.{attr}" for attr in sorted(vars(value))
                      if not attr.startswith("_")]
    return names


def test_public_api_is_frozen():
    assert public_api() == PUBLIC_API


# ``name(parameter)`` for each parameter with a default or passed by keyword
# only; a knob added to or removed from the API is one line here
KEYWORD_PARAMETERS = [
    "CardinalityCertificate(k)",
    "CardinalityCertificate(h)",
    "ChoiceSource(seed)",
    "construct_pq(free_fixed_points)",
    "random_cocycle(strongly_linear)",
]


def keyword_parameters():
    lines = []
    for name in public_api():
        value = loopext
        for part in name.split("."):
            value = getattr(value, part)
        if not callable(value):
            continue
        for param in inspect.signature(value).parameters.values():
            if not param.name.startswith("_") and (
                    param.kind is param.KEYWORD_ONLY or param.default is not param.empty):
                lines.append(f"{name}({param.name})")
    return lines


def test_keyword_parameters_are_frozen():
    assert keyword_parameters() == KEYWORD_PARAMETERS


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    # the fenced block under "## Library example", run as written, so the
    # example cannot drift from the API it names
    section = README.read_text(encoding="utf-8").split("\n## Library example\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, f"{README}:Library example", "exec"), namespace)
    assert namespace["ext"].size == 12 and namespace["defect"] is None
    assert "lip=True, rip=True, ip=True" in capsys.readouterr().out.splitlines()[0]
