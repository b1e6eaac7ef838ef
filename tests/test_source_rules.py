"""Rules about how the modules in ``src/`` read and write files and import
each other, checked on their source.

Every file is read as text by ``fileio._read_text``, which refuses bytes
that are not UTF-8 by the file's name; a second ``.read_text(`` would read
past that check.  The one ``open(`` is the force reader's scan, which hands
a byte that is not UTF-8 to ``_read_text``.  Every file is written by
``fileio.atomic_write_text``, which makes the directory it writes into, so
a command refused before its first write leaves no output directory,
whichever layer refuses it; a second ``.mkdir(``, ``.write_text(`` or
``os.replace`` would make one outside it.
JSON is read by handlers that catch ``ValueError``: a
``json.JSONDecodeError`` handler alone lets through the ``ValueError`` of an
integer too long to convert, which then names no file.  A caught exception
is never kept as a value, so each error is raised where it is met: the name
that ``except ... as NAME`` binds appears only in a ``raise ... from NAME``,
or in the message that ``cli.main`` prints.  The source is
parsed, not imported, and a broken rule is reported by the function that
breaks it.  Processes are started in one place, ``cli._pooled``, the pool
of ``simulate-static`` and ``analyze``, whose results come in order from
``Executor.map`` alone: no function submits a task itself, so no second
scheduler grows back.  Importing the CLI leaves the pool out, so every
command starts without its import cost; it leaves out ``hashlib`` too,
whose OpenSSL only ``fileio.config_hash`` needs.
The block of curves that the fleet summary reduces is declared once, as
``analysis.CurveBlock``: ``fileio`` reads files into it without importing
``bench``, and no other class declares its fields: ``LoadCurve``, a block
of one, declares only its offsets.  The drop thresholds meet the curves
in ``analysis.reduce_block`` and the per-curve functions under it alone: no
summary layer takes a threshold, so none can be passed to it and ignored.
"""

import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "forcebench"


def nodes_by_function():
    """(module.function, node) for every node of every module in ``src/``;
    a node outside any function is named by its module alone."""
    for module in sorted(SRC.glob("*.py")):
        def walk(node, scope):
            for child in ast.iter_child_nodes(node):
                inner = scope
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    inner = f"{scope}.{child.name}"
                yield inner, child
                yield from walk(child, inner)

        yield from walk(ast.parse(module.read_text()), module.stem)


def caught_names(handler):
    kinds = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return {getattr(kind, "attr", getattr(kind, "id", None)) for kind in kinds}


def test_only_read_text_reads_file_text():
    readers = sorted({scope for scope, node in nodes_by_function()
                      if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and node.func.attr == "read_text"})
    assert readers == ["fileio._read_text"], (
        f"{', '.join(r for r in readers if r != 'fileio._read_text')} call .read_text("
        "; read a file's text with fileio._read_text")
    openers = sorted({scope for scope, node in nodes_by_function()
                      if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open"})
    assert openers == ["fileio.read_force_column_csv"], (
        f"{', '.join(openers)} call open(; read a file's text with fileio._read_text")


def test_only_atomic_write_text_writes_files_and_makes_directories():
    writers = sorted({scope for scope, node in nodes_by_function()
                      if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and (node.func.attr in ("mkdir", "write_text")
                           or node.func.attr == "replace"
                           and getattr(node.func.value, "id", None) == "os")})
    assert writers == ["fileio.atomic_write_text"], (
        f"{', '.join(w for w in writers if w != 'fileio.atomic_write_text')} call .mkdir(,"
        " .write_text( or os.replace; write a file with fileio.atomic_write_text")


def test_no_handler_catches_json_decode_errors_alone():
    narrow = sorted({scope for scope, node in nodes_by_function()
                     if isinstance(node, ast.ExceptHandler) and node.type is not None
                     and "JSONDecodeError" in caught_names(node)
                     and "ValueError" not in caught_names(node)})
    assert not narrow, (f"{', '.join(narrow)} catch json.JSONDecodeError without ValueError"
                        "; an integer too long to convert raises a plain ValueError")


def allowed_uses(handler, scope):
    """The nodes of ``handler`` where the exception it binds may appear: a
    ``raise ... from NAME`` that chains it, and the message ``cli.main`` prints."""
    chains = [node for node in ast.walk(handler) if isinstance(node, ast.Raise)
              and getattr(node.cause, "id", None) == handler.name]
    prints = [node for node in ast.walk(handler) if scope == "cli.main"
              and isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print"]
    return {id(node) for use in chains + prints for node in ast.walk(use)}


def test_no_caught_exception_is_kept_as_a_value():
    keepers = sorted({scope for scope, handler in nodes_by_function()
                      if isinstance(handler, ast.ExceptHandler) and handler.name
                      and any(isinstance(node, ast.Name) and node.id == handler.name
                              and id(node) not in allowed_uses(handler, scope)
                              for node in ast.walk(handler))})
    assert not keepers, (
        f"{', '.join(keepers)} keep a caught exception as a value; raise each error"
        " where it is met, or chain it with raise ... from")


def loaded_by_importing_the_cli(packages):
    """The modules of ``packages`` that a fresh ``import forcebench.cli`` loads, as printed."""
    code = ("import sys, forcebench.cli; print(sorted(m for m in sys.modules"
            f" if m.split('.')[0] in {tuple(packages)!r}))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True, cwd=SRC.parent, timeout=60)
    return result.stdout


def test_importing_the_cli_imports_no_process_pool():
    assert loaded_by_importing_the_cli(["multiprocessing", "concurrent"]) == "[]\n"


def test_importing_the_cli_imports_no_hashlib():
    # hashlib maps OpenSSL (_hashlib): only fileio.config_hash imports it, when it hashes
    assert loaded_by_importing_the_cli(["hashlib", "_hashlib"]) == "[]\n"


POOL_NAMES = {"multiprocessing", "ProcessPoolExecutor"}


def test_only_pooled_names_the_process_pool():
    users = sorted({scope for scope, node in nodes_by_function()
                    if POOL_NAMES & ({part for name in imported(node) for part in name.split(".")}
                                     | {getattr(node, "id", None), getattr(node, "attr", None)})})
    assert users == ["cli._pooled"], (
        f"{', '.join(u for u in users if u != 'cli._pooled')} name multiprocessing or"
        " ProcessPoolExecutor; run tasks in processes with cli._pooled")


def test_no_function_submits_to_an_executor():
    submitters = sorted({scope for scope, node in nodes_by_function()
                         if isinstance(node, ast.Attribute) and node.attr == "submit"})
    assert not submitters, (
        f"{', '.join(submitters)} name an executor's .submit; run tasks with cli._pooled,"
        " whose order comes from Executor.map")


def imported(node):
    """The modules, or module attributes, that an import statement names."""
    if isinstance(node, ast.ImportFrom):
        base = node.module or ""
        return {base} | {f"{base}.{alias.name}" for alias in node.names}
    return {alias.name for alias in node.names} if isinstance(node, ast.Import) else set()


def test_fileio_imports_nothing_from_bench():
    importers = sorted({scope for scope, node in nodes_by_function()
                        if scope.split(".")[0] == "fileio"
                        and any(name.split(".")[-1] == "bench" for name in imported(node))})
    assert not importers, f"{', '.join(importers)} import from bench; fileio reads files only"


BLOCK_FIELDS = {"side", "dz_um", "force_n", "valid"}


def test_the_curve_block_fields_are_declared_once():
    declaring = sorted(f"{scope}.{node.name}" for scope, node in nodes_by_function()
                       if isinstance(node, ast.ClassDef) and (
                           node.name == "CurveBlock" or BLOCK_FIELDS <= {
                               getattr(field.target, "id", None) for field in node.body
                               if isinstance(field, ast.AnnAssign)}))
    assert declaring == ["analysis.CurveBlock"], (
        "declare the block fields once, in analysis.CurveBlock, and extend it")


THRESHOLDS = {"drop_fraction", "drop_floor_n"}
THRESHOLD_TAKERS = ["analysis._drops", "analysis.detect_failures", "analysis.first_failures",
                    "analysis.reduce_block"]


def test_only_the_reductions_take_a_drop_threshold():
    takers = sorted(scope for scope, node in nodes_by_function()
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and THRESHOLDS & {arg.arg for arg in ast.walk(node.args)
                                      if isinstance(arg, ast.arg)})
    assert takers == THRESHOLD_TAKERS, (
        f"{', '.join(t for t in takers if t not in THRESHOLD_TAKERS)} take a drop threshold;"
        " reduce the curves with analysis.reduce_block at the thresholds instead")
