"""The README's library quick start runs and prints what it says."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_blocks() -> list[str]:
    """The python blocks of the README's "Library quick start" section, in order."""
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.S)


def printed(code: str, namespace: dict) -> list[str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, namespace)
    return out.getvalue().splitlines()


def test_quick_start_prints_every_line_it_shows():
    first, second = quick_start_blocks()
    namespace: dict = {}
    assert printed(first, namespace) == [
        "SeriesProfile(lower_dims=(3, 1, 0), upper_dims=(0, 1, 3), nilpotent=True, cls=2, "
        "coclass=1)",
        "6",
        "(True, None)",
    ]
    assert printed(second, namespace) == [
        "ConstraintReport(name='tau_nonzero', ok=True, detail='tau = 1')",
        "ConstraintReport(name='discriminant_nonsquare', ok=False, "
        "detail='0 is a square in GF(5)')",
    ]
