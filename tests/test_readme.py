"""The README's library example runs as it is written."""

import contextlib
import io
import re
from pathlib import Path

from dwtmark.pixmap import write_image, write_watermark
from synth import benchmark_image, benchmark_mark

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(tmp_path, monkeypatch):
    [example] = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                           re.MULTILINE | re.DOTALL)
    write_image(benchmark_image(5), tmp_path / "cover.pgm")
    write_watermark(benchmark_mark(), tmp_path / "mark.pbm")
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(example, str(README), "exec"), {})
    # psnr and count, jpeg BER and NCC, median BER, decode agreement
    lines = out.getvalue().splitlines()
    assert len(lines) == 4
    psnr, count = map(float, lines[0].split())
    assert psnr > 30 and count > 0
    ber, ncc = map(float, lines[1].split())
    assert ncc == 1 - 2 * ber
    assert float(lines[3]) > 0.5
