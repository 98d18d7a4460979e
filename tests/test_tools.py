import importlib.util
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "code_lines.py"
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_count_skips_comments_blanks_and_docstrings():
    source = textwrap.dedent('''\
        """Module docstring
        on two lines."""

        # a comment
        X = """not a
        docstring"""


        class A:
            """Class docstring."""

            def f(self):  # trailing comment
                """Function
                docstring."""
                return (1,
                        2)
    ''')
    # X's string spans two lines; class, def and the return's two lines.
    assert load_tool("code_lines").count(source) == (6, source.count("\n"))


def test_rows_add_up_to_the_package():
    done = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True, timeout=60, check=True)
    rows = [line.split() for line in done.stdout.splitlines()]
    modules, total = rows[:-1], rows[-1]
    package = ROOT / "src" / "hypersparse"
    assert [name for *_, name in modules] == sorted(p.name for p in package.glob("*.py"))
    for code, lines, name in modules:
        assert int(code) <= int(lines) == (package / name).read_text().count("\n")
    assert total[2] == "total"
    assert [int(total[0]), int(total[1])] == [sum(int(r[0]) for r in modules), sum(int(r[1]) for r in modules)]


def test_digest_hashes_every_output_of_each_instance():
    digest = load_tool("digest")
    one, other = ((8, 40, 4, 1),), ((8, 40, 4, 2),)
    first = digest.digests(one)
    assert list(first) == list(digest.OUTPUTS)
    assert all(len(h) == 64 for h in first.values())
    assert digest.digests(one) == first
    moved = digest.digests(other)
    assert all(moved[name] != first[name] for name in digest.OUTPUTS)


def test_digest_pins_one_blas_thread_only_as_a_script(monkeypatch):
    # Imported, it leaves the process's environment alone.
    for name in THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    before = dict(os.environ)
    load_tool("digest")
    assert dict(os.environ) == before
    # Run as a script, it sets the three variables before it imports numpy,
    # which this probe makes fail.
    probe = textwrap.dedent(f"""\
        import os, runpy, sys
        sys.modules["numpy"] = None
        try:
            runpy.run_path({str(ROOT / "tools" / "digest.py")!r}, run_name="__main__")
        except ImportError:
            print(*(os.environ[k] for k in {THREAD_VARIABLES!r}))
    """)
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
                          env=dict(os.environ), check=True)
    assert done.stdout == "1 1 1\n"
