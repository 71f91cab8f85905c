"""Parsing of the program's control-op replies and CLI reports."""

import json
import re


def parse_op_line(line, op):
    """Numeric fields of a flat {"op": op, ...} reply line.

    Raises ValueError when the line is not JSON, is not an object, or answers
    another op. Non-numeric fields other than "op" are dropped.
    """
    try:
        fields = json.loads(line)
    except json.JSONDecodeError as error:
        raise ValueError(f"not a JSON line: {line[:80]!r}") from error
    if not isinstance(fields, dict) or fields.get("op") != op:
        raise ValueError(f"expected op {op!r} in {line[:80]!r}")
    return {key: float(value) for key, value in fields.items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)}


_FINETUNE_RE = re.compile(
    r"zero-shot F1 ([0-9.]+) -> fine-tuned F1 ([0-9.]+) \(train (\d+) -> "
    r"(\d+) pairs, best epoch (\d+)\)")


def parse_finetune_stdout(text):
    """(zero-shot F1, fine-tuned F1, final train pairs) from `finetune`."""
    match = _FINETUNE_RE.search(text)
    if match is None:
        raise ValueError("no F1 line in finetune output")
    return float(match.group(1)), float(match.group(2)), int(match.group(4))
