"""Every top-level function, class and constant of ``src/mppfv``, and every
field of its dataclasses, is read somewhere in ``src/mppfv``: a definition
only tests or tools read belongs with them, and one nothing reads is dead
code.  A field counts as read only where it is read as an attribute, so a
field reached through a ``getattr`` string, or only ever written, shows
up."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mppfv"

#: Definitions kept although the package reads none of them, each with its
#: reason.
ALLOWED = {
    "mppfv.__version__": "the package version, read by its users",
    "mppfv.fluxes.FaceFluxSet": "perfbench/tracing.py patches its "
                                "__post_init__ to count constructions",
}


#: Dataclass fields kept although the package reads none of them as an
#: attribute, each with its reason.
ALLOWED_FIELDS = {}


def definitions(source):
    """Names bound by the top-level functions, classes and assignments of
    ``source``."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return names


def reads(source):
    """Names ``source`` reads, bare or as an attribute."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def dataclass_fields(source):
    """``Class.field`` of every annotated field of the top-level dataclasses
    of ``source``."""
    def is_dataclass(decorator):
        target = (decorator.func if isinstance(decorator, ast.Call)
                  else decorator)
        return getattr(target, "id", getattr(target, "attr", None)) == (
            "dataclass")

    return {f"{node.name}.{stmt.target.id}"
            for node in ast.parse(source).body
            if isinstance(node, ast.ClassDef)
            and any(map(is_dataclass, node.decorator_list))
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)}


def attribute_reads(source):
    """Attribute names ``source`` reads (``obj.name`` in a load)."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def unread_fields(sources):
    """``module.Class.field`` of every dataclass field in ``sources`` that
    no source reads as an attribute, sorted."""
    read = set().union(*(attribute_reads(s) for s in sources.values()))
    return sorted(f"{module}.{field}" for module, source in sources.items()
                  for field in dataclass_fields(source)
                  if field.split(".")[1] not in read)


def unread_definitions(sources):
    """``module.name`` of every definition in ``sources`` (a mapping of
    dotted module name to source) that no source reads, sorted."""
    read = set().union(*(reads(s) for s in sources.values()))
    return sorted(f"{module}.{name}" for module, source in sources.items()
                  for name in definitions(source) - read)


def package_sources():
    sources = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = "mppfv" if path.stem == "__init__" else f"mppfv.{path.stem}"
        sources[module] = path.read_text()
    return sources


def test_scan_finds_unread_definitions():
    sources = {
        "a": ("X = 1\nY, Z = 2, 3\nT: int = 4\n"
              "def f():\n    return g() + Y\n"
              "def g():\n    return 0\nclass C:\n    D = 5\n"),
        "b": "from a import f\nimport a\nf(a.Z)\n",
    }
    assert unread_definitions(sources) == ["a.C", "a.T", "a.X"]


def test_scan_finds_unread_fields():
    sources = {
        "a": ("from dataclasses import dataclass\n"
              "import dataclasses\n"
              "@dataclass(frozen=True)\nclass P:\n"
              "    read: int\n    by_string: int\n    written: int = 0\n"
              "    CONSTANT = 1\n"
              "@dataclasses.dataclass\nclass Q:\n    other: int\n"
              "class Plain:\n    annotated: int\n"),
        "b": ("def f(p, q):\n    q.written = getattr(p, 'by_string')\n"
              "    return p.read\n"),
    }
    assert unread_fields(sources) == ["a.P.by_string", "a.P.written",
                                      "a.Q.other"]


def test_no_unread_fields():
    unread = unread_fields(package_sources())
    assert [name for name in unread if name not in ALLOWED_FIELDS] == []


def test_no_unread_definitions():
    unread = unread_definitions(package_sources())
    assert [name for name in unread if name not in ALLOWED] == []


def test_allowlist_names_existing_definitions():
    defined = {f"{module}.{name}"
               for module, source in package_sources().items()
               for name in definitions(source)}
    assert set(ALLOWED) <= defined
    fields = {f"{module}.{field}"
              for module, source in package_sources().items()
              for field in dataclass_fields(source)}
    assert set(ALLOWED_FIELDS) <= fields
