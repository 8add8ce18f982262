import shlex
from pathlib import Path

import pytest

from fltestbed.cli import build_parser

from conftest import alloc_base_port

README = Path(__file__).resolve().parent.parent / "README.md"


def _cli_block_commands() -> list[list[str]]:
    """Every `fltestbed ...` command of the README's CLI code block, continuations joined."""
    text = README.read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.startswith("fltestbed ")]


def test_readme_cli_commands_parse():
    commands = _cli_block_commands()
    assert {argv[1] for argv in commands} == {"node", "launch", "verify", "fuzz"}
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}")


def _python_blocks() -> list[str]:
    text = README.read_text(encoding="utf-8")
    return [part.split("```", 1)[0] for part in text.split("```python\n")[1:]]


@pytest.mark.parametrize("index", range(len(_python_blocks())))
def test_readme_python_blocks_print_their_result_comments(index, capsys):
    # each `# ...` comment of a block is the next line its prints write
    block = _python_blocks()[index].replace("base_port=6000", f"base_port={alloc_base_port(3)}")
    expected = [line.split("# ", 1)[1] for line in block.splitlines() if "# " in line]
    assert expected
    exec(compile(block, f"README.md python block {index}", "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected
