"""Self time and coverage of spans.

Two span sources: the probe's span file (one record per call, with start
and end times) and the program's own aggregated span tree (the "spans" of a
--metrics-out snapshot: per dotted path a count and total time).
"""


def _union_ns(intervals):
    """Total length covered by a set of [start, end) intervals."""
    covered = 0
    last_end = None
    for start, end in sorted(intervals):
        if last_end is None or start > last_end:
            covered += end - start
            last_end = end
        elif end > last_end:
            covered += end - last_end
            last_end = end
    return covered


def _children(spans):
    children = {i: [] for i in range(len(spans))}
    for i, span in enumerate(spans):
        if span["parent"] >= 0:
            children[span["parent"]].append(i)
    return children


def self_times_ns(spans):
    """Per span name: summed duration minus the part its children cover.

    Child intervals are clipped to their parent, and overlapping children
    are counted once.
    """
    children = _children(spans)
    totals = {}
    for i, span in enumerate(spans):
        start, end = span["start_ns"], span["end_ns"]
        inner = [(max(start, spans[c]["start_ns"]),
                  min(end, spans[c]["end_ns"])) for c in children[i]]
        inner = [(s, e) for s, e in inner if e > s]
        own = (end - start) - _union_ns(inner)
        totals[span["name"]] = totals.get(span["name"], 0) + own
    return totals


def coverage(spans, root_name):
    """Share of the first `root_name` span covered by its direct children."""
    children = _children(spans)
    for i, span in enumerate(spans):
        if span["name"] == root_name:
            start, end = span["start_ns"], span["end_ns"]
            inner = [(spans[c]["start_ns"], spans[c]["end_ns"])
                     for c in children[i]]
            return _union_ns(inner) / (end - start) if end > start else 0.0
    raise KeyError(root_name)


def _tree_total_ms(node):
    """A node's time; a path segment never opened itself (count 0) sums
    its children."""
    if node["count"]:
        return node["total_ms"]
    return sum(_tree_total_ms(child) for child in node["children"])


def tree_find(nodes, path):
    """The node with dotted `path` in a span tree, or None."""
    for node in nodes:
        if node["path"] == path:
            return node
        found = tree_find(node["children"], path)
        if found is not None:
            return found
    return None


def tree_self_ms(nodes):
    """Per path of a span tree: its time minus its children's."""
    out = {}
    for node in nodes:
        out[node["path"]] = _tree_total_ms(node) - sum(
            _tree_total_ms(child) for child in node["children"])
        out.update(tree_self_ms(node["children"]))
    return out


def tree_coverage(nodes, root_path, wall_ms):
    """Share of `wall_ms` covered by the direct children of `root_path`.

    The program's stages run one after another on one thread, so their
    totals add up without overlap.
    """
    root = tree_find(nodes, root_path)
    if root is None:
        raise KeyError(root_path)
    return sum(_tree_total_ms(child) for child in root["children"]) / wall_ms
