import importlib.util
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "code_lines.py"


def load_code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
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
    assert load_code_lines().count(source) == (6, source.count("\n"))


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
