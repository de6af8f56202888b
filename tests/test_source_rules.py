"""Rules on the package source itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hullcount
from hullcount import algebra
from hullcount.formulas import FormKind

SOURCES = sorted(Path(hullcount.__file__).parent.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}


def test_no_assert_statements():
    # python -O strips assert statements, so invariants must raise errors
    found = [
        f"{name}:{node.lineno}"
        for name, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES
    assert found == []


def _raised_name(node: ast.Raise) -> str | None:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def test_no_raise_assertion_error():
    # a broken invariant is an ArithmeticError or a package error, not a
    # stand-in for an assert statement
    found = [
        f"{name}:{node.lineno}"
        for name, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and node.exc is not None
        and _raised_name(node) == "AssertionError"
    ]
    assert SOURCES
    assert found == []


# the modules a table, an eval of any form or a census has no use for: the
# finite fields and the oracle, and dataclasses, which pulls in inspect, ast,
# dis and tokenize and execs generated methods for every class it builds
_HEAVY = ("hullcount.algebra", "hullcount.oracle")
_CLI_UNUSED = (*_HEAVY, "hullcount.ratios", "hullcount.eaqecc", "json", "csv", "dataclasses")


@pytest.mark.parametrize(
    "statement, unwanted",
    [
        ("import hullcount", ("hullcount.",)),
        ("import hullcount.cli", _CLI_UNUSED),
        ("import hullcount.cli; hullcount.cli.main(['table', 'hermitian'])", _HEAVY),
        (
            "import hullcount.cli; hullcount.cli.main(['eval', '--form', 'hermitian',"
            " '-n', '4', '-k', '2', '-l', '1', '-q', '2'])",
            _HEAVY,
        ),
        (
            "import hullcount.cli; hullcount.cli.main(['eval', '--form', 'euclidean',"
            " '-n', '6', '-k', '3', '-l', '1', '-q', '3'])",
            _HEAVY,
        ),
        (
            "import hullcount.cli; hullcount.cli.main(['census', '--form', 'hermitian',"
            " '-n', '4', '-k', '2', '-q', '2'])",
            _HEAVY,
        ),
    ],
    ids=["root", "cli", "table", "eval", "eval-euclidean", "census"],
)
def test_import_footprint(statement, unwanted):
    # every CLI process compiles what it imports; a command loads only the
    # modules it uses, and the package root loads none
    src = str(Path(hullcount.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = (
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    {statement}\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout.split()
    assert [name for name in loaded if name.startswith(unwanted)] == []


def _names(node: ast.AST) -> set[str]:
    """Every name and attribute name node mentions."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
    return found


def _own_names(func: ast.FunctionDef) -> set[str]:
    """The names func's body mentions outside the functions it defines."""
    found = set()
    todo = list(func.body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.FunctionDef):
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        todo.extend(ast.iter_child_nodes(node))
    return found


def _calls(node: ast.AST, name: str) -> bool:
    return any(
        isinstance(sub, ast.Call) and name in _names(sub.func) for sub in ast.walk(node)
    )


def test_only_classify_hermitian_reads_the_closed_form_in_ratios():
    # ratio_report and the alpha functions are the route the closed form is
    # checked against, so they must not reach it
    closed = {"closed_step", "closed_spectrum", "closed_count"}
    found = [
        f"ratios.py:{node.name}"
        for node in ast.walk(TREES["ratios.py"])
        if isinstance(node, ast.FunctionDef)
        and node.name != "classify_hermitian"
        and _names(node) & closed
    ]
    assert found == []
    classify = next(
        node for node in ast.walk(TREES["ratios.py"])
        if isinstance(node, ast.FunctionDef) and node.name == "classify_hermitian"
    )
    assert _names(classify) & closed == {"closed_step"}


def _module_names(module: str) -> set[str]:
    """The names module defines at its top level: functions, classes and
    assigned globals, not what it imports."""
    found = set()
    for node in TREES[module].body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found |= {name for target in targets for name in _names(target)}
    return found


def test_the_euclidean_chain_reads_only_the_ratio_layer():
    # the oracle is the chain's independent check, so the chain reaches
    # neither it nor the closed forms' evaluator
    chain = _names(_function("ratios.py", "euclidean_spectrum"))
    closed = {"closed_count", "closed_spectrum", "closed_step", "exact_count"}
    heavy = {"algebra", "oracle"} | _module_names("algebra.py") | _module_names("oracle.py")
    assert "ratio_report" in chain
    assert chain & (closed | heavy) == set()


def test_only_verify_enumerates_in_the_cli():
    # eval counts every form from a formula; only verify runs the oracle
    outside = [
        f"cli.py:{node.lineno}"
        for statement in TREES["cli.py"].body
        if getattr(statement, "name", None) != "cmd_verify"
        for node in ast.walk(statement)
        if "hull_spectrum" in _names(node)
        or isinstance(node, ast.alias) and node.name == "hull_spectrum"
    ]
    assert outside == []


def _loops(tree: ast.AST):
    """(iterated expression, loop body) of every for loop and comprehension."""
    for node in ast.walk(tree):
        if isinstance(node, ast.For):
            yield node.iter, node.body
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            body = [node.key, node.value] if isinstance(node, ast.DictComp) else [node.elt]
            for gen in node.generators:
                yield gen.iter, body


def _dims_names(func: ast.FunctionDef) -> set[str]:
    """hull_dims and every name func binds to a hull_dims call."""
    return {"hull_dims"} | {
        target.id
        for node in ast.walk(func)
        if isinstance(node, ast.Assign) and _calls(node.value, "hull_dims")
        for target in node.targets
        if isinstance(target, ast.Name)
    }


def test_whole_spectra_have_one_evaluator():
    # a loop over hull_dims (or a name bound to it) that calls closed_count
    # builds every count from scratch; closed_spectrum steps from one count
    found = []
    for name, tree in TREES.items():
        if name == "formulas.py":
            continue
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            dims_names = _dims_names(func)
            for iterated, body in _loops(func):
                if _names(iterated) & dims_names and any(
                    _calls(part, "closed_count") for part in body
                ):
                    found.append(f"{name}:{func.name}:{iterated.lineno}")
    assert found == []


def test_closed_spectra_carry_their_own_labels():
    # closed_spectrum keys its counts by l, so no caller zips hull_dims (or
    # a name bound to it) with the counts to label them
    found = [
        f"{name}:{func.name}:{node.lineno}"
        for name, tree in TREES.items()
        if name != "formulas.py"
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef) and _calls(func, "closed_spectrum")
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "zip" and any(_names(arg) & _dims_names(func) for arg in node.args)
    ]
    assert found == []


def test_the_cli_has_one_output_writer():
    # _render is the one CSV, JSON and markdown writer; no command picks a
    # format itself, and the forms are FormKind's own values
    cli = TREES["cli.py"]
    for writer in ("writer", "dumps"):
        calls = [
            node for node in ast.walk(cli)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == writer
        ]
        assert len(calls) == 1, writer
    format_tests = [
        f"{func.name}:{node.lineno}"
        for func in ast.walk(cli)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Compare)
        and any(isinstance(side, ast.Constant) and side.value in ("markdown", "json", "csv")
                for side in (node.left, *node.comparators))
    ]
    assert [test.split(":")[0] for test in format_tests] == ["_render", "_render"]
    assert _identifiers(cli) & {"_FORMS", "_records", "_markdown"} == set()


def test_each_form_is_one_table_set_in_gram_kernel():
    # the per-form conventions are picked in the table setup of
    # gram_kernel; the one gram_of is the only function doing field
    # arithmetic there, and it only reads the tables; no function in
    # gram_kernel names a form, and a kernel is gram_of and rank_of alone
    defs = [
        node for node in ast.walk(TREES["algebra.py"])
        if isinstance(node, ast.FunctionDef)
    ]
    assert [node.name for node in defs].count("gram_of") == 1
    kernel = next(node for node in defs if node.name == "gram_kernel")
    arithmetic = {"add", "neg", "mul", "inv", "log", "pair", "lanes"}
    nested = [node for node in ast.walk(kernel) if isinstance(node, ast.FunctionDef) and node is not kernel]
    readers = [node for node in nested if _own_names(node) & arithmetic]
    assert sorted(node.name for node in readers) == ["gram_of"]
    assert [node.name for node in nested if "FormKind" in _names(node)] == []
    assert algebra.GramKernel._fields == ("gram_of", "rank_of")
    # no per-state step function is left beside the transfer matrices
    steps = [
        f"{name}:{node.lineno}"
        for name, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "step"
    ]
    assert steps == []
    # the spectrum reads no table itself
    tables = {"add_table", "neg_table", "mul_table", "inv_table", "frobenius_table"}
    assert _names(_function("oracle.py", "hull_spectrum")) & tables == set()


def _compares_order_with_2(node: ast.AST) -> bool:
    sides = (node.left, *node.comparators) if isinstance(node, ast.Compare) else ()
    return any(isinstance(side, ast.Attribute) and side.attr == "order" for side in sides) and any(
        isinstance(side, ast.Constant) and side.value == 2 for side in sides
    )


def test_one_module_knows_the_packed_format():
    # algebra packs F_2 rows into ints, one byte an entry: no other module
    # calls from_bytes or bit_count, the ebit count reaches the packed
    # helpers and not the table kernel, and hull_dim is the one function
    # that picks a route by comparing a field's order with 2; the ebit
    # count's comparison only refuses a field that is not F_2
    packers = [
        f"{name}:{node.lineno}"
        for name, tree in TREES.items()
        if name != "algebra.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _names(node.func) & {"from_bytes", "bit_count"}
    ]
    assert packers == []
    functions = {
        node.name: node
        for module in ("eaqecc.py", "algebra.py")
        for node in TREES[module].body
        if isinstance(node, ast.FunctionDef)
    }
    reached = _reached(functions, "ebits_from_check_matrix")
    assert {"_packed_rows", "_parity_gram", "_xor_rank"} <= reached
    assert not {"gram_kernel", "gram_of", "rank_of", "_rank_kernel"} & reached
    routes, refusals = [], []
    for name, tree in TREES.items():
        for top in tree.body:
            for func in top.body if isinstance(top, ast.ClassDef) else [top]:
                if not isinstance(func, ast.FunctionDef):
                    continue
                refusal_tests = [
                    node.test for node in ast.walk(func)
                    if isinstance(node, ast.If) and [type(sub) for sub in node.body] == [ast.Raise]
                ]
                for node in ast.walk(func):
                    if _compares_order_with_2(node):
                        found = refusals if any(node is test for test in refusal_tests) else routes
                        found.append(f"{name}:{func.name}")
    assert routes == ["algebra.py:hull_dim"]
    assert refusals == ["eaqecc.py:ebits_from_check_matrix"]


def test_the_form_checks_have_one_spelling():
    # require_form is the one place that refuses a form the length or the
    # field cannot carry; the table kernel, the spectrum and hull_dim's
    # F_2 route all call it, and no other function raises NonSquareFieldError
    raisers = [
        f"{name}:{func.name}"
        for name, tree in TREES.items()
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Raise) and node.exc is not None
        and _raised_name(node) == "NonSquareFieldError"
    ]
    assert raisers == ["algebra.py:require_form"]
    for module, name in (("algebra.py", "gram_kernel"), ("algebra.py", "hull_dim"), ("oracle.py", "hull_spectrum")):
        assert _calls(_function(module, name), "require_form"), name


def _function(module: str, name: str) -> ast.FunctionDef:
    return next(
        node for node in ast.walk(TREES[module])
        if isinstance(node, ast.FunctionDef) and node.name == name
    )


def _is_sign_check(node: ast.Compare) -> bool:
    """ell < 0 or ell >= 0 (either way round): a sign check of outside
    input, which says nothing of a cell's shape."""
    if len(node.ops) != 1:
        return False
    left, right, op = node.left, node.comparators[0], type(node.ops[0])
    if isinstance(left, ast.Constant):
        left, right = right, left
        op = {ast.Lt: ast.Gt, ast.Gt: ast.Lt, ast.LtE: ast.GtE, ast.GtE: ast.LtE}.get(op, op)
    return (
        isinstance(left, ast.Name) and left.id == "ell"
        and isinstance(right, ast.Constant) and right.value == 0
        and op in (ast.Lt, ast.GtE)
    )


def _ell_shape_tests(func: ast.FunctionDef) -> list[int]:
    """The lines where func compares a bare ell other than by in / not in,
    sign checks aside: each is a cell-shape rule of its own."""
    found = []
    for node in ast.walk(func):
        if not isinstance(node, ast.Compare) or _is_sign_check(node):
            continue
        bare_ell = any(
            isinstance(side, ast.Name) and side.id == "ell"
            for side in (node.left, *node.comparators)
        )
        if bare_ell and not all(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops):
            found.append(node.lineno)
    return found


def test_cell_shapes_are_read_from_hull_dims():
    # formulas.hull_dims is the one rule for which l a cell has and whether
    # l has a successor; these entry points only ask it
    readers = {
        "formulas.py": ("count_hermitian", "count_symplectic", "unified_factor"),
        "ratios.py": ("alpha_hermitian", "alpha_symplectic", "alpha_euclidean"),
        "eaqecc.py": ("gjg_map", "wilde_brun_map"),
        "cli.py": ("cmd_eval",),
    }
    found = []
    for module, names in readers.items():
        for name in names:
            func = _function(module, name)
            assert "hull_dims" in _names(func), name
            found += [f"{module}:{name}:{line}" for line in _ell_shape_tests(func)]
    assert found == []
    assert not any("in_counting_range" in _names(tree) for tree in TREES.values())


@pytest.mark.parametrize(
    "test, flagged",
    [
        ("ell <= k", True),
        ("k >= ell", True),
        ("0 <= ell <= k", True),
        ("ell == k % 2", True),
        ("ell < 1", True),
        ("ell == 0", True),
        ("ell > 0", True),
        ("0 < ell", True),
        ("0 >= ell", True),
        ("ell < 0", False),
        ("0 > ell", False),
        ("k < 0 or ell < 0", False),
        ("ell >= 0", False),
        ("0 <= ell", False),
        ("ell in dims", False),
    ],
)
def test_the_cell_shape_rule_passes_only_sign_checks(test, flagged):
    # a sign check of ell is not a cell-shape rule; an upper bound, a
    # parity or any other comparison of a bare ell still is
    func = ast.parse(f"def f(k, ell, dims):\n    return {test}\n").body[0]
    assert bool(_ell_shape_tests(func)) is flagged


def _adds_a_step_to_ell(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
        and isinstance(node.left, ast.Name) and node.left.id == "ell"
        and "step" in _names(node.right)
    )


def test_the_successor_test_has_one_spelling():
    # l has a successor when it lies in hull_dims(...)[:-1]; no function
    # adds the step to l and asks the range again
    found = [
        f"{name}:{node.lineno}"
        for name, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops)
        and any(_adds_a_step_to_ell(side) for side in (node.left, *node.comparators))
    ]
    assert found == []
    sites = {
        "formulas.py": ("closed_step",),
        "ratios.py": ("alpha_hermitian", "alpha_symplectic", "alpha_euclidean"),
    }
    for module, names in sites.items():
        for name in names:
            func = _function(module, name)
            dims_names = _dims_names(func)
            assert any(
                isinstance(node, ast.Compare)
                and isinstance(node.left, ast.Name) and node.left.id == "ell"
                and isinstance(node.ops[0], (ast.In, ast.NotIn))
                and isinstance(rest := node.comparators[0], ast.Subscript)
                and ast.unparse(rest.slice) == ":-1"
                and _names(rest.value) & dims_names
                for node in ast.walk(func)
            ), name


def test_symplectic_lengths_are_checked_even_in_hull_dims():
    # an odd ambient length is refused by hull_dims (and the records); the
    # EAQECC maps and the census do not test it themselves
    found = [
        f"eaqecc.py:{name}:{node.lineno}"
        for name in ("wilde_brun_map", "entanglement_census")
        for node in ast.walk(_function("eaqecc.py", name))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
        and isinstance(node.left, ast.Name) and node.left.id in ("two_n", "length")
    ]
    assert found == []


def test_the_oracle_has_one_odometer():
    # one function walks the pivot subsets and fills their free entries,
    # and enumerate_subspaces returns it; no Gray walk is left
    walkers = [
        f"{name}:{func.name}"
        for name, tree in TREES.items()
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        and any(_calls(iterated, "combinations") for iterated, _ in _loops(func))
    ]
    assert walkers == ["oracle.py:_generators"]
    assert _calls(_function("oracle.py", "enumerate_subspaces"), "_generators")
    assert all("_gray" not in _identifiers(tree) for tree in TREES.values())


def test_the_spectrum_does_not_walk_the_pivot_subsets():
    # hull_spectrum counts by transfer matrices; the generators serve only
    # enumerate_subspaces, not the transfer or any other function
    spectrum = _function("oracle.py", "hull_spectrum")
    assert not _calls(spectrum, "_generators")
    assert not _calls(spectrum, "enumerate_subspaces")
    callers = [
        f"{name}:{func.name}"
        for name, tree in TREES.items()
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef) and _calls(func, "_generators")
    ]
    assert callers == ["oracle.py:enumerate_subspaces"]


def test_the_symplectic_transfer_lists_no_step_gram():
    # no form lists a step Gram: every class move is a closed form in Q, d
    # and the class, so _transfer takes the field's order q, not the field,
    # hands each form's moves q and d alone, and nothing it reaches reads
    # a field, a field table, a kernel, a class function or a generator
    transfer = _function("oracle.py", "_transfer")
    assert [arg.arg for arg in transfer.args.args] == ["q", "form", "d"]
    functions = {
        node.name: node for node in TREES["oracle.py"].body if isinstance(node, ast.FunctionDef)
    }
    calls = [
        node for node in ast.walk(transfer)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in functions
    ]
    assert sorted(call.func.id for call in calls) == [
        "_alternating_moves", "_even_symmetric_moves", "_hermitian_moves", "_odd_symmetric_moves",
    ]
    assert all([ast.unparse(arg) for arg in call.args] == ["q", "d"] for call in calls)
    assert not any(call.keywords for call in calls)
    reached = _reached(functions, "_transfer")
    assert "field" not in reached
    assert not [name for name in reached if name.endswith("_table")]
    kernel = {"gram_kernel", "gram_of", "rank_of", "class_of", "_step_grams", "_generators"}
    assert reached & (kernel | _module_names("algebra.py")) == set()


def test_the_generators_reach_only_the_matrix_and_field_types_of_algebra():
    # enumerate_subspaces is the generator-by-generator check on the
    # spectrum, so it builds each generator without the kernel, rref or
    # any other algebra function
    functions = {
        node.name: node for node in TREES["oracle.py"].body if isinstance(node, ast.FunctionDef)
    }
    reached = _reached(functions, "_generators")
    assert reached & _module_names("algebra.py") == {"MatrixGF", "FiniteField"}


def _reached(module_functions: dict[str, ast.FunctionDef], start: str) -> set[str]:
    """Every name start mentions, and every name the functions it reaches
    through module_functions mention."""
    seen, todo, names = {start}, [start], set()
    while todo:
        found = _names(module_functions[todo.pop()])
        names |= found
        for name in found & module_functions.keys() - seen:
            seen.add(name)
            todo.append(name)
    return names


def test_the_spectrum_reaches_neither_formulas_nor_ratios():
    # the oracle is the independent route that checks the closed forms and
    # the ratio layer, so hull_spectrum, and the oracle and algebra
    # functions it calls, name nothing of either but the form enum and the
    # even-length check of an ambient length
    functions = {
        node.name: node
        for module in ("oracle.py", "algebra.py")
        for node in TREES[module].body
        if isinstance(node, ast.FunctionDef)
    }
    reached = _reached(functions, "hull_spectrum")
    assert {"subspace_count", "_transfer"} <= reached
    assert not {"gram_kernel", "gram_of", "rank_of"} & reached
    derived = {"formulas", "ratios"} | _module_names("formulas.py") | _module_names("ratios.py")
    form_enum = {"FormKind"} | {form.name for form in FormKind}
    assert reached & derived - form_enum == {"require_even_length"}


_CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
_MUTATORS = {
    "add", "append", "appendleft", "clear", "difference_update", "discard", "extend",
    "extendleft", "insert", "intersection_update", "pop", "popitem", "remove", "reverse",
    "setdefault", "sort", "symmetric_difference_update", "update",
}


def _module_containers(tree: ast.Module) -> set[str]:
    """The names a module binds at its top level to a dict, list or set."""
    found = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            value = node.value
            if isinstance(value, _CONTAINERS) or (
                isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                and value.func.id in ("dict", "list", "set", "defaultdict")
            ):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found |= {target.id for target in targets if isinstance(target, ast.Name)}
    return found


def test_no_function_mutates_a_module_level_container():
    # state kept between calls is a functools.lru_cache, bounded and with
    # cache_clear; a module-level dict, list or set that functions fill is
    # shared by every caller and grows by hand. The module namespace itself
    # is not such a container: the lazy package root binds each export once
    # in globals(), as an import would
    found = []
    for name, tree in TREES.items():
        shared = _module_containers(tree)
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            local = {
                node.id for node in ast.walk(func)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
            } - {n for node in ast.walk(func) if isinstance(node, ast.Global) for n in node.names}
            targets = shared - local
            for node in ast.walk(func):
                if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                    hit = node.value
                elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    hit = node.func.value if node.func.attr in _MUTATORS else None
                elif isinstance(node, ast.AugAssign):
                    hit = node.target
                else:
                    continue
                if isinstance(hit, ast.Name) and hit.id in targets:
                    found.append(f"{name}:{func.name}:{node.lineno}")
    assert found == []
    assert "_STEP_SLICES" in _module_containers(TREES["exactnum.py"])
    assert _identifiers(TREES["exactnum.py"]) & {"_phis", "_phi_cache"} == set()


def _identifiers(tree: ast.AST) -> set[str]:
    """Every name, attribute, argument and definition name tree mentions."""
    found = _names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            found.add(node.arg)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
    return found


def test_the_oracle_has_one_engine_and_no_kernel_call():
    # the spectrum counts by the class moves of T_d; no key builder, walk,
    # block machinery, memo cap or column DP with its packed Gram keys is
    # left in any module
    gone = {"lead", "key_of", "digits", "walk", "block_tally", "stepper", "runs"}
    assert _identifiers(TREES["oracle.py"]) & gone == set()
    assert _identifiers(TREES["algebra.py"]) & gone == set()
    banned = {
        "RUN_MEMO_CAP", "BLOCK_MEMO_CAP", "BLOCK_STATES", "DELTA_MEMO_CAP", "GramWalker",
        "CappedMemo", "RANK_MEMO_CAP",
        "columns", "TABLE_CAP", "unpack", "offset", "chunks", "bivectors", "spread",
    }
    for module, tree in TREES.items():
        assert _identifiers(tree) & banned == set(), module
    # no option or environment variable that could pick an engine
    for module in ("algebra.py", "oracle.py"):
        assert {"environ", "getenv"} & _names(TREES[module]) == set(), module
    # one engine entry, and no kernel call: the form errors are the
    # spectrum's own named checks, and the spectrum reaches the move lists
    # only through _gram_classes
    spectrum = _function("oracle.py", "hull_spectrum")
    calls = [
        node.func.id for node in ast.walk(spectrum)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    ]
    assert calls.count("gram_kernel") == 0 and calls.count("_gram_classes") == 1
    assert "_transfer" not in _names(spectrum)
    callers = [
        func.name for func in ast.walk(TREES["oracle.py"])
        if isinstance(func, ast.FunctionDef) and _calls(func, "_transfer")
    ]
    assert callers == ["_gram_classes"]
    assert "gram_kernel" not in _names(TREES["oracle.py"])
    # T_d is its move list alone: no function in the oracle or its tests
    # binds class labels, an index of them or a dense table (or its power)
    oracle_tests = ast.parse((Path(__file__).parent / "test_oracle.py").read_text())
    dense = {"labels", "table", "index", "power"}
    for tree in (TREES["oracle.py"], oracle_tests):
        assert _bound_names(tree) & dense == set()


def _bound_names(node: ast.AST) -> set[str]:
    """The locals and arguments the functions in node bind, with the names
    of the functions and classes defined inside them."""
    found = set()
    for func in ast.walk(node):
        if not isinstance(func, (ast.FunctionDef, ast.Lambda)):
            continue
        for sub in ast.walk(func):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                found.add(sub.id)
            elif isinstance(sub, ast.arg):
                found.add(sub.arg)
            elif isinstance(sub, (ast.FunctionDef, ast.ClassDef)) and sub is not func:
                found.add(sub.name)
    return found


def test_no_local_shadows_a_function_or_class_of_its_module():
    # _reached follows names, not bindings, so a local that shares a
    # module function's name would count as a call of it (a local `gram`
    # in hull_dim makes it reach gram() and so gram_kernel); the rules
    # that follow calls are sound only while no local shadows a function
    for module in ("algebra.py", "oracle.py", "eaqecc.py"):
        tree = TREES[module]
        top = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        assert _bound_names(tree) & top == set(), module


def test_the_work_limit_has_one_check():
    # subspace_count is the one range and work-limit check; the spectrum,
    # the generators and verify's up-front loop all call it
    raisers = [
        f"{name}:{func.name}"
        for name, tree in TREES.items()
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Raise) and node.exc is not None
        and _raised_name(node) == "WorkLimitExceededError"
    ]
    assert raisers == ["oracle.py:subspace_count"]
    for module, name in (
        ("oracle.py", "hull_spectrum"),
        ("oracle.py", "enumerate_subspaces"),
        ("cli.py", "cmd_verify"),
    ):
        assert _calls(_function(module, name), "subspace_count"), name
    assert not any(
        "SubspaceIterator" in _identifiers(tree) or "expected_count" in _identifiers(tree)
        for tree in TREES.values()
    )
