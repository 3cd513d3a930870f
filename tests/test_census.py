"""The classifier of ``tools/census.py``, on a synthetic tree.

The census's traced passes stay out of tier-1 (one of them is tier-1);
this checks only how ``def``s are keyed, classified and totalled.
"""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "census.py"

SOURCE = '''\
import functools


def product():
    return 1


@functools.lru_cache
def tested(x):
    def inner():
        return x
    return inner


class Box:
    async def never(self):
        pass
'''


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_defs_are_keyed_classified_and_totalled(tmp_path):
    census = load("census", TOOL)
    (tmp_path / "pkg").mkdir()
    path = tmp_path / "pkg" / "mod.py"
    path.write_text(SOURCE)

    defs = census.functions(tmp_path)
    assert defs == {("pkg/mod.py", 4): ("product", 2),
                    ("pkg/mod.py", 8): ("tested", 4),
                    ("pkg/mod.py", 10): ("tested.inner", 2),
                    ("pkg/mod.py", 16): ("Box.never", 2)}
    # A key is the line a code object reports: a decorated def's code
    # starts at its first decorator, not at ``def``.
    module = load("mod", path)
    assert [module.product.__code__.co_firstlineno,
            module.tested.__wrapped__.__code__.co_firstlineno,
            module.tested(0).__code__.co_firstlineno,
            module.Box.never.__code__.co_firstlineno] == [4, 8, 10, 16]

    # Module code (line 1) is entered but is no def; product wins.
    kinds = census.classify(
        defs, product={("pkg/mod.py", 1), ("pkg/mod.py", 4)},
        tested={("pkg/mod.py", 4), ("pkg/mod.py", 8)})
    assert [kinds[("pkg/mod.py", line)] for line in (4, 8, 10, 16)] == \
        ["product", "test-only", "never", "never"]

    lines = census.report(defs, kinds, names=True)
    assert lines[1].split() == ["pkg/mod.py", "1", "1", "(4)", "2", "(4)"]
    assert lines[2] == ("4 functions: 1 product, 1 test-only (4 lines), "
                        "2 never entered (4 lines)")
    assert [line.split()[-1] for line in lines[3:]] == \
        ["tested", "tested.inner", "Box.never"]


def test_the_table_skips_all_product_modules_and_sorts_the_rest():
    census = load("census", TOOL)
    defs = {("b/late.py", 1): ("late", 3), ("a/early.py", 1): ("early", 2),
            ("a/early.py", 5): ("kept", 4), ("a/used.py", 1): ("used", 9)}
    kinds = census.classify(defs, product={("a/early.py", 5),
                                           ("a/used.py", 1)},
                            tested={("b/late.py", 1)})
    lines = census.report(defs, kinds)
    assert [line.split()[0] for line in lines[1:-1]] == \
        ["a/early.py", "b/late.py"]
    assert lines[1].split() == ["a/early.py", "1", "0", "(0)", "1", "(2)"]
    assert lines[2].split() == ["b/late.py", "0", "1", "(3)", "0", "(0)"]
    assert lines[-1] == ("4 functions: 2 product, 1 test-only (3 lines), "
                         "1 never entered (2 lines)")


def test_an_all_product_tree_prints_only_the_header_and_totals():
    census = load("census", TOOL)
    defs = {("m.py", 1): ("f", 2), ("m.py", 4): ("g", 3)}
    lines = census.report(defs, census.classify(defs, product=set(defs),
                                                tested=set(defs)), names=True)
    assert len(lines) == 2 and lines[0].split()[0] == "module"
    assert lines[1] == ("2 functions: 2 product, 0 test-only (0 lines), "
                        "0 never entered (0 lines)")
