"""The README's library example runs as printed."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_prints_finite_numbers():
    """The first python block under "## Library entry points" runs and prints the
    Purcell factor, the decay rates and one 3x3 Green tensor, every number finite."""
    section = README.read_text(encoding="utf-8").split("## Library entry points", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = out.getvalue()
    assert not re.search(r"nan|inf", printed, re.I), printed
    numbers = [float(x) for x in re.findall(r"[-+]?\d+\.?\d*(?:e[-+]?\d+)?", printed)]
    # the Purcell factor, gamma_e, gamma_m and the Purcell factor again, and G's 9
    # complex entries as 18 reals
    assert len(numbers) >= 4 + 18, printed
