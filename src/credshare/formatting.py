"""Deterministic numeric/CSV formatting.

All CLI and file output goes through format_sig so golden files are byte
identical across runs and platforms: 6 significant digits, round half even
(CPython's correctly rounded float formatting), LF newlines. A writer with
many rows of one shape may build each row as a finished line and hand
csv_text the lines: one %-operation on a row pattern whose number fields
are NUMBER, each applied to `x or 0.0`, renders every float as format_sig
does.
"""

SIG_DIGITS = 6

# the %-conversion of one float field: NUMBER % (x or 0.0) == format_sig(x)
# for every float x, since `or` turns -0.0 into 0.0 and "%g" renders the rest
NUMBER = "%%.%dg" % SIG_DIGITS


def format_sig(value):
    """Render a number with SIG_DIGITS significant digits."""
    if type(value) is not float:
        if value is None:
            return ""
        if isinstance(value, str):
            return value
        if isinstance(value, int):
            return str(value)
    # "%g" takes any number through __float__ and renders inf, -inf and nan;
    # only the sign of -0.0 needs normalizing
    return "%.*g" % (SIG_DIGITS, value) if value else "0"


def csv_line(fields):
    """Join fields with commas; str fields pass through unformatted."""
    return ",".join([f if isinstance(f, str) else format_sig(f) for f in fields])


def csv_text(header, rows):
    """Join a header and rows into one LF-terminated CSV string.

    A row of type str is taken as a finished line; a row of fields is
    joined by csv_line.
    """
    lines = [csv_line(header)]
    # an exact type test in a list comprehension, not isinstance in a
    # generator, so that a row of fields costs no more than csv_line's call
    lines += [row if type(row) is str else csv_line(row) for row in rows]
    return "\n".join(lines) + "\n"
