import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_runtime_imports_only_the_standard_library():
    # -S keeps site-packages out, so no .pth hook can import a module of its own
    code = ("import sys, fltestbed, fltestbed.cli\n"
            "print(*{m.partition('.')[0] for m in sys.modules} - set(sys.stdlib_module_names))")
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert set(out.stdout.split()) == {"__main__", "fltestbed"}


def test_node_process_loads_only_the_node_library():
    # what `fltestbed node` imports; the tooling stays importable by its own name
    code = ("import sys, fltestbed, fltestbed.cli\n"
            "print(*sorted({'fltestbed.harness', 'fltestbed.launcher', 'subprocess'}"
            " & set(sys.modules)))\n"
            "import fltestbed.harness\n"
            "assert all(hasattr(fltestbed, name) for name in fltestbed.__all__)\n")
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.split() == []


def test_package_import_builds_no_parser():
    # `import fltestbed` is perfbench's verify-proc floor (setup_s); the CLI
    # parser, built when fltestbed.cli is imported, stays out of it
    code = ("import sys, fltestbed\n"
            "print(*sorted({'fltestbed.cli', 'argparse'} & set(sys.modules)))\n")
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.split() == []
