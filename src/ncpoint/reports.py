"""Structured text reports: key-value blocks, deterministic bytes.

A report depends only on (inputs, seed, flags); wall-clock timing is
written to stderr by the CLI so that identical invocations produce
byte-identical stdout.
"""

import re

try:  # CPython's own sha256, which spares every run hashlib's load of OpenSSL
    from _sha256 import sha256  # up to Python 3.11
except ImportError:
    try:
        from _sha2 import sha256  # from Python 3.12
    except ImportError:
        from hashlib import sha256


_SHELL_SAFE = re.compile(r"[\w@%+=:,./-]+", re.ASCII).fullmatch


def shell_quote(arg: str) -> str:
    """arg as ``shlex.quote`` writes it, without loading shlex: as it is
    when it is nonempty and holds only [A-Za-z0-9_@%+=:,./-], else in
    single quotes, with each ' written as '"'"'."""
    if _SHELL_SAFE(arg):
        return arg
    return "'" + arg.replace("'", "'\"'\"'") + "'"


class RunReport:
    def __init__(self, command: str):
        self.command = command
        self.lines = []
        self.ok = True

    def digest_input(self, label: str, data: bytes):
        self.lines.append(f"input {label}: sha256:{sha256(data).hexdigest()}")

    def add(self, key: str, value=""):
        self.lines.append(f"{key}: {value}" if value != "" else key)

    def add_block(self, title: str, body_lines):
        self.lines.append(f"check {title}:")
        for line in body_lines:
            self.lines.append(f"  {line}")

    def check(self, title: str, good: bool, detail: str = ""):
        """One verdict line; the detail is printed only for a failure."""
        status = "pass" if good else "FAIL"
        suffix = f" ({detail})" if detail and not good else ""
        self.lines.append(f"check {title}: {status}{suffix}")
        if not good:
            self.ok = False

    def render(self) -> str:
        out = [f"command: {self.command}"]
        out.extend(self.lines)
        out.append(f"result: {'pass' if self.ok else 'fail'}")
        return "\n".join(out) + "\n"
