'''
Guards on the package's module surface.

Every exported name must exist, modules reach each other only through
public names, and each module imports only from the modules below it in
LAYERS, so a deletion that leaves a stale export, a new private
cross-module import or an upward import fails here rather than in a user's
code. Every binary header starts with the shared magic | u16 version |
u16 pad prefix, JSON is serialized in three places only, files are opened
and JSON and CSV parsed in one place each, and text files are written by
the JSON and CSV writers only, so a second header layout, JSON writer,
input reader or hand-built text writer fails here too. Command-line flag
values are split by the two grammar helpers only, so a flag parser with its
own list syntax fails here as well.
'''

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import conformal_retrieval

PACKAGE_DIR = Path(conformal_retrieval.__file__).parent
MODULES = sorted(info.name for info in pkgutil.iter_modules([str(PACKAGE_DIR)]))

# lowest first: the data layer, the math of the pipeline, the generator,
# then the stages that build on them, and the command line last
LAYERS = ("dataset", "conformal", "similarity", "synthgen", "pipeline",
          "retrieval", "metrics", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"conformal_retrieval.{name}")
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert missing == []


def private_imports(path):
    '''(module, name) for each underscore name imported from the package.'''
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").startswith(
            "conformal_retrieval")
        if internal:
            found.extend((node.module, alias.name) for alias in node.names
                         if alias.name.startswith("_"))
    return found


def test_no_private_cross_module_imports():
    found = {path.name: private_imports(path)
             for path in sorted(PACKAGE_DIR.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


def package_imports(path):
    '''Names of the package modules that a module imports from.'''
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level > 0:
                found.update([node.module] if node.module
                             else [alias.name for alias in node.names])
            elif (node.module or "").startswith("conformal_retrieval."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("conformal_retrieval."))
    return found


def test_layers_name_every_module():
    assert sorted(LAYERS) == MODULES


def test_modules_import_only_lower_layers():
    upward = {
        name: sorted(package_imports(PACKAGE_DIR / f"{name}.py") - set(LAYERS[:i]))
        for i, name in enumerate(LAYERS)
    }
    assert {name: hits for name, hits in upward.items() if hits} == {}


def is_call(node, module, names):
    '''Whether node is a module.name(...) call, or a bare name(...) call
    when module is None.'''
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if module is None:
        return isinstance(func, ast.Name) and func.id in names
    return (isinstance(func, ast.Attribute) and func.attr in names
            and isinstance(func.value, ast.Name) and func.value.id == module)


def calls_to(path, module, names):
    '''(enclosing top-level name, call) for each module.name(...) call, or
    each bare name(...) call when module is None.'''
    found = []
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        found.extend((getattr(top, "name", None), node) for node in ast.walk(top)
                     if is_call(node, module, names))
    return found


def callers(module, names):
    '''Sorted module.function names of the top-level functions that make
    the calls calls_to finds.'''
    return sorted(f"{path.stem}.{name}" for path in PACKAGE_DIR.glob("*.py")
                  for name, _ in calls_to(path, module, names))


def test_every_binary_header_shares_the_prefix():
    formats = [ast.literal_eval(call.args[0])
               for path in sorted(PACKAGE_DIR.glob("*.py"))
               for _, call in calls_to(path, "struct", {"Struct"})]
    assert formats
    assert [f for f in formats if not f.startswith("<4sHH")] == []


def test_json_is_serialized_in_three_places():
    assert callers("json", {"dump", "dumps"}) == [
        "dataset.schema_fingerprint", "dataset.write_json", "pipeline.save_model"]


def test_inputs_are_read_in_one_place():
    assert callers("json", {"load", "loads"}) == ["dataset.parse_json"]
    assert callers(None, {"open"}) == ["dataset.read_binary"]


def test_csv_is_read_and_text_written_in_one_place_each():
    assert callers("csv", {"reader"}) == ["dataset.read_csv"]
    assert callers(None, {"atomic_write_text"}) == ["dataset.write_csv",
                                                   "dataset.write_json"]


def test_results_are_built_in_two_places():
    # exact and shortlist retrieval and the raw-score baseline share
    # _results; the reader builds its own
    assert callers(None, {"RetrievalResult"}) == [
        "retrieval._results", "retrieval._results_from_rows"]


def test_rows_are_scored_in_one_place():
    # viewed and gathered id lists take the same route to one kernel call
    assert callers(None, {"_cosine_table"}) == ["similarity.pairwise_score_table"]


def test_the_shortlist_screen_has_one_caller():
    # screen bounds pick candidates only; they never reach a score
    assert callers(None, {"cosine_bounds"}) == ["retrieval.retrieve_shortlist"]


def test_flag_values_are_split_in_one_place():
    tree = ast.parse((PACKAGE_DIR / "cli.py").read_text(encoding="utf-8"))
    splitters = {"split", "rsplit", "partition", "rpartition"}
    found = sorted({getattr(top, "name", None) for top in tree.body
                    for node in ast.walk(top)
                    if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in splitters})
    assert found == ["_entries", "_split"]
