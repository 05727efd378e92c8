"""The README's library example runs and prints what its comments say."""

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The first python block under the README's "## Library" heading."""
    section = README.read_text().split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_library_example_prints_its_comments(capsys):
    code = library_example()
    expected = []
    for line in code.splitlines():
        if line.startswith("print("):
            statement, sep, comment = line.partition("# ")
            assert sep, f"README print without an expected-output comment: {line!r}"
            expected.append(comment.strip())
    assert expected
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected
