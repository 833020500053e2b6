"""Robustness of the CLI on arbitrary input files: `main` returns one of its
exit codes and never raises, whatever bytes an instance file or a stored
certificate holds."""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from weq.cli import main

EXIT_CODES = {0, 2, 3, 4, 5}

XABBY = """\
constants a b
variables X Y
equation X a b Y = Y b a X
semigroup builtin:trivial
"""

# chunks whose long runs nest JSON deeply, are not UTF-8, or make long
# lines and many lines in the instance format
CHUNKS = st.sampled_from([b"[", b'{"a":', b'{"a":[', b"\xff", b"X ", b"\n;"])

# arbitrary bytes, or a long run of one chunk followed by arbitrary bytes
BLOBS = st.binary(max_size=256) | st.builds(
    lambda chunk, n, tail: chunk * n + tail, CHUNKS, st.integers(1, 20_000), st.binary(max_size=16)
)


def run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@given(BLOBS)
@settings(max_examples=50, deadline=None, derandomize=True)
def test_any_instance_file(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.weq"
        path.write_bytes(data)
        for argv in (["check"], ["infinite"], ["pump"], ["solve", "--max-len", "2"], ["graph"]):
            assert run(argv + [str(path)]) in EXIT_CODES


@given(BLOBS)
@settings(max_examples=50, deadline=None, derandomize=True)
def test_any_certificate_file(data):
    with tempfile.TemporaryDirectory() as tmp:
        ins, cert = Path(tmp) / "xabby.weq", Path(tmp) / "cert.json"
        ins.write_text(XABBY)
        cert.write_bytes(data)
        assert run(["pump", str(ins), "--cert-in", str(cert)]) in EXIT_CODES
