"""The package decides with integers and roots of unity only, a root held
as its integer exponent and printed, one root at a time, by
`exactfield.root_name` alone, with no class of roots and no table of all
the names of a modulus beside it: no module of `nichols` imports the exact
cyclotomic field, the dense linear algebra, or the test-side modules that
hold them as reference implementations, and none defines or uses the
general Cartan-matrix reading (the congruence solver, the symmetrizer, the
dense braiding table) that now lives there.
Characters are read at class labels only: `reps` imports nothing from
`permgroup`, and no module defines or uses a transporter, a cycle-type
class or a walk over the whole class, which live there too.  Nor does it
keep a wrapper whose callers know all it hides: a Dynkin diagram is built
from a subrack plan alone, on nodes, with no vertex-level twin of it,
holds its braiding labels and reads every edge off them by one formula,
with no edge held when it is built, and is drawn whole by one generator
of DOT lines (`dot_lines`), with no mode that draws part of it: a
witness's text is drawn once per capped pattern off the label table of
its rectangle, in the same two line formats (`DOT_VERTEX`, `DOT_EDGE`),
with no second diagram built for it (`rectangle`), and a diagram does not
hold the subrack again; a class plan reaches its subracks through
their plans alone; the stabilizer of a character vector is read as its
level sizes, with no record of the character or of its Young subgroup,
the degree of a symmetric-group irrep is its character's value at the
identity, with no hook-length formula beside it, and the placements of a
label's cycles are counted per level sizes (`reps.placements`), with no
table keyed on the values of the vector;
conjugation and the powers of one cycle are the methods of the
permutation and the class; and a Cartan component is read by counting its
edges, with no reader of the tree shapes that no candidate subrack makes.
The witness check, `nichols.witness`, imports nothing of the decision: its
import statements are held to a whitelist (the family registry and the
subrack class of `braidspace`, and `permgroup`, `reps` and `exactfield`
whole), so no spectrum or rule code that the decision adds can reach it,
and `verdict` takes from it only the check and the outcome name.  Neither
parses text by regular expression.  A character is read as values only,
with no search for the scalar a class acts by.  A JSON report has one
encoder, `cli._dumps`: no module calls `json.dumps` with an indent beside
it.  The `--subrack` selectors name the families of `braidspace.FAMILIES`,
and `cli` imports no family builder beside them."""

import ast
import inspect
import pathlib

import nichols
import nichols.verdict
import nichols.witness
from nichols import cli
from nichols.braidspace import (FAMILIES, AbelianSubrack,
                                GeneralizedDynkinDiagram, dynkin_diagram,
                                spectrum_diagram)
from nichols.reps import InducedCharacter
from nichols.verdict import ClassPlan

# last component of a module path that the package must not import
FORBIDDEN_MODULES = frozenset(("exactla", "exactfield_oracle", "exactla_oracle",
                               "oracles"))
# wrappers and test-only paths that left the package: their callers call
# the code behind them
REMOVED_NAMES = frozenset(("candidate_subracks", "joint_spectrum",
                           "canonical_involutions", "block_perm", "RunConfig",
                           "run_config", "_LABEL_NAMES", "DiagonalSubspace",
                           "diagonal_subspace", "_braiding_labels", "restrict",
                           "vertex_names", "vertex_labels", "block_of",
                           "block_adjacent", "_fill", "neighbor_set",
                           "_neighbors", "_neighbor_sets", "GammaCharacter",
                           "YoungSubgroup", "stabilizer", "orbit_size",
                           "conjugate", "_power", "_class_label",
                           "_subrack_plans", "dynkin_shape", "DynkinShape",
                           "_EXCEPTIONAL", "_selector_indices",
                           "RootOfUnity", "ROOT_ONE", "ROOT_MINUS_ONE",
                           "_printed_root", "_roots", "root_names",
                           "orbit_terms", "to_dot", "dot_template",
                           "partition_degree", "connected_components",
                           "_members", "_near", "rectangle", "edge_label",
                           "gamma_table", "_integers", "_int_reads"))
FORBIDDEN_NAMES = frozenset(("Cyclotomic", "cartan_type", "symmetrizable",
                             "braiding_matrix", "transporter",
                             "_involution_transporter", "CycleType",
                             "conjugacy_class_iter")) | FORBIDDEN_MODULES \
    | REMOVED_NAMES


def _imports(tree):
    """(module, names) for every import statement of a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, ()
        elif isinstance(node, ast.ImportFrom):
            yield node.module or "", tuple(alias.name for alias in node.names)


def test_package_imports_no_field_and_no_oracle():
    package = pathlib.Path(nichols.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) > 5
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        for module, names in _imports(tree):
            assert module.split(".")[-1] not in FORBIDDEN_MODULES, (path.name, module)
            assert not FORBIDDEN_NAMES & set(names), (path.name, module, names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)}
        used |= {node.name for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        assert not FORBIDDEN_NAMES & used, (path.name, FORBIDDEN_NAMES & used)


def test_reps_reads_characters_at_labels_without_permgroup():
    path = pathlib.Path(nichols.__file__).parent / "reps.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    for module, _ in _imports(tree):
        assert module.split(".")[-1] != "permgroup", module


def test_a_character_offers_values_and_no_scalar_search():
    # the negativity check reads chi(t) chi(g^-1 pi g) = degree^2 off two
    # values, so no search over the roots of unity stands beside it
    assert not hasattr(InducedCharacter, "scalar")


def test_a_dynkin_diagram_is_built_from_a_plan_alone():
    # the plan carries its subrack, so no second argument can disagree,
    # and the diagram does not carry it again
    assert list(inspect.signature(dynkin_diagram).parameters) == [
        "plan", "character"]
    assert list(inspect.signature(spectrum_diagram).parameters) == [
        "plan", "spectrum"]
    assert list(inspect.signature(GeneralizedDynkinDiagram).parameters) == [
        "modulus", "columns", "runs", "labels"]
    assert "subrack" not in GeneralizedDynkinDiagram.__slots__
    # each edge is read off the labels, not held in a list
    assert "edges" not in GeneralizedDynkinDiagram.__slots__
    # dot_lines draws the whole diagram only, with its own names
    assert list(inspect.signature(GeneralizedDynkinDiagram.dot_lines)
                .parameters) == ["self"]


def test_a_class_plan_reaches_its_subracks_through_their_plans():
    # one list of subrack plans, each carrying its subrack, and the
    # candidates not yet planned: no subrack list beside it, no map from
    # subrack to plan, and no cached names on a subrack under the caches
    # that already keep its description; beside them only the two memos
    # of the subspace rules
    assert set(ClassPlan.__slots__) == {"cls", "_plans", "_unplanned",
                                        "_partners", "_rules", "_patterns"}
    assert not hasattr(ClassPlan, "subrack_plan")
    assert "_names" not in AbelianSubrack.__slots__


# all that the witness check may import from the package: the family
# registry and the subrack class of braidspace, and the modules below the
# decision whole
WITNESS_MAY_IMPORT = {"braidspace": {"FAMILIES", "AbelianSubrack"},
                      "permgroup": None, "reps": None, "exactfield": None}


def test_the_witness_check_imports_none_of_the_decision():
    # a whitelist of witness.py's import statements: whatever spectrum or
    # rule code the decision grows, the check cannot reach it; and verdict
    # takes from the check only the check and the outcome name
    package = pathlib.Path(nichols.__file__).parent
    tree = ast.parse((package / "witness.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name.split(".")[0] not in ("nichols", "re"), (
                    alias.name)
        elif isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            if not node.level:
                assert node.module.split(".")[0] not in ("nichols", "re"), (
                    node.module)
                continue
            assert node.module in WITNESS_MAY_IMPORT, (node.module, names)
            allowed = WITNESS_MAY_IMPORT[node.module]
            assert allowed is None or names <= allowed, (node.module, names)
    tree = ast.parse((package / "verdict.py").read_text())
    taken = [set(names) for module, names in _imports(tree)
             if module.split(".")[-1] == "witness"]
    assert taken == [{"INFINITE", "verify_witness"}]


def test_the_witness_check_is_defined_once():
    # verdict re-exports the check and defines none of its helpers, and
    # the spec resolver that both use lives in reps
    helpers = {"_witness_subrack", "_images", "_witness_columns",
               "_WitnessReading", "_witness_reading",
               "_character_sums", "_refire", "_cartan_infinite",
               "_positive_definite", "_require", "_SUBRACK_FIELDS",
               "_WITNESS_FIELDS"}
    assert nichols.verdict.verify_witness is nichols.witness.verify_witness
    assert nichols.verdict.INFINITE is nichols.witness.INFINITE
    assert helpers <= set(vars(nichols.witness))
    assert not (helpers | {"_resolve_spec"}) & set(vars(nichols.verdict))


def test_verdict_imports_no_regular_expressions():
    path = pathlib.Path(nichols.verdict.__file__)
    tree = ast.parse(path.read_text(), filename=str(path))
    assert "re" not in {module for module, _ in _imports(tree)}


def test_one_encoder_writes_the_json_report():
    package = pathlib.Path(nichols.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else \
                getattr(func, "id", None)
            keywords = {keyword.arg for keyword in node.keywords}
            assert not (name == "dumps" and "indent" in keywords), (
                path.name, node.lineno)


def test_the_subrack_selectors_read_the_family_registry():
    # every family has one selector, and cli reaches the builders only
    # through FAMILIES
    assert sorted(kind for kind, _ in cli.SELECTORS.values()) == sorted(FAMILIES)
    tree = ast.parse(pathlib.Path(cli.__file__).read_text())
    imported = {name for _, names in _imports(tree) for name in names}
    assert not imported & {family.__name__ for family in FAMILIES.values()}
