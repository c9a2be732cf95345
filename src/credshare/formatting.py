"""Deterministic numeric/CSV formatting.

All CLI and file output goes through format_sig so golden files are byte
identical across runs and platforms: 6 significant digits, round half even
(CPython's correctly rounded float formatting), LF newlines.
"""

SIG_DIGITS = 6


def format_sig(value, digits=SIG_DIGITS):
    """Render a number with a fixed count of significant digits."""
    if type(value) is not float:
        if value is None:
            return ""
        if isinstance(value, str):
            return value
        if isinstance(value, int):
            return str(value)
    # "%g" takes any number through __float__ and renders inf, -inf and nan;
    # only the sign of -0.0 needs normalizing
    return "%.*g" % (digits, value) if value else "0"


def csv_line(fields):
    """Join fields with commas; str fields pass through unformatted."""
    return ",".join([f if isinstance(f, str) else format_sig(f) for f in fields])


def csv_text(header, rows):
    """Join a header and row tuples into one LF-terminated CSV string."""
    lines = [csv_line(header)]
    lines.extend(csv_line(row) for row in rows)
    return "\n".join(lines) + "\n"
