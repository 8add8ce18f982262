import shlex
from pathlib import Path

import pytest

from fltestbed.cli import build_parser
from fltestbed.engine import CENTRALIZED, DECENTRALIZED, FAULT_POINTS, fault_points
from fltestbed.examples import EXAMPLES
from fltestbed.values import loads

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


def _table_after(marker: str) -> list[list[str]]:
    """The body rows of the first README table after `marker`, each cell stripped."""
    text = README.read_text(encoding="utf-8").split(marker, 1)[1]
    table = text[text.index("\n|") + 1:].split("\n\n", 1)[0]
    return [[cell.strip() for cell in line.strip("|").split("|")]
            for line in table.splitlines()][2:]


def test_readme_examples_table_matches_examples():
    # the README table is the only place the example names live
    rows = _table_after("\n## Built-in examples\n")
    assert [int(row[0]) for row in rows] == list(EXAMPLES)
    engines = {"centralized": CENTRALIZED, "decentralized": DECENTRALIZED}
    for example_id, _name, engine, data in rows:
        run = EXAMPLES[int(example_id)]
        assert engines[engine] == run.engine
        assert loads("[" + data.replace(" ", "") + "]") == list(run.ldata)


def test_readme_fault_point_table_matches_engine():
    rows = _table_after("\nEach fault point is reached by")
    assert [row[0] for row in rows] == [f"`{point}`" for point in FAULT_POINTS]
    engines = {"centralized": CENTRALIZED, "decentralized": DECENTRALIZED}
    roles = {"the server": {True}, "each client": {False}, "every node": {True, False}}
    for point, engine, reached_by, _what in rows:
        reached = {(e, srv) for e in engines.values() for srv in (True, False)
                   if point.strip("`") in fault_points(e, srv)}
        assert reached == {(engines[engine], srv) for srv in roles[reached_by]}, point
