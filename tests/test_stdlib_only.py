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
