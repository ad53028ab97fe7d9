"""Per-layer tracing from outside the program.

`Tracer.install` wraps public functions and methods of omsemi's modules.
A span is recorded at every call that crosses into a module, from another
module or from the benchmark: a module-level function is wrapped where
other modules import it, and where it is defined unless it calls itself by
name (wrapping a recursive walk at its definition would add a frame per
level and move the point where long words hit the recursion limit).  A
call whose innermost open span is already in the callee's module passes
straight through.  Counts are taken from the arguments and results the
wrappers see, on every wrapped call.

Spans keep (layer, start, end, parent, op id) in memory; `write` puts them
in a JSON-lines file at the end of the run.
"""

import functools
import importlib
import json
import sys
import time

# layer -> (module, function or Class.method) of its entry points
LAYERS = {
    "regex.parse": [("regex", "parse_regex")],
    "regex.thompson": [("regex", "nfa_of_regex")],
    "regex.to_regex": [("regex", "dfa_to_regex"), ("regex", "format_regex")],
    "dfa.compile": [("dfa", "compile_min_dfa")],
    "dfa.minimize": [("dfa", "Dfa.minimize")],
    "dfa.language_ops": [("dfa", f) for f in (
        "languages_equal", "has_common_word", "is_empty",
        "is_finite_language", "enumerate_accepted")],
    "syntactic.closure": [("syntactic", "syntactic_semigroup")],
    "syntactic.order": [
        ("syntactic", "SyntacticPresentation.syntactic_order"),
        ("syntactic", "SyntacticPresentation.ordered_semigroup")],
    "syntactic.class_language": [
        ("syntactic", "SyntacticPresentation.class_language")],
    "semigroup.construct": [("semigroup", "FiniteSemigroup." + m) for m in (
        "__init__", "with_identity_adjoined", "cyclic", "direct_product")],
    "semigroup.green": [("semigroup", "green_classes")],
    "terms.parse": [("terms", "parse_term")],
    "terms.eval": [("terms", "eval_term")],
    "terms.identity_search": [("terms", "find_identity_failure"),
                              ("terms", "satisfies_identity")],
    "terms.normal_form": [("terms", f) for f in (
        "ab_image", "com_exponents", "free_group_normal_form")],
    "terms.unroll": [("terms", "unroll")],
    "varieties.check": [("varieties", f) for f in (
        "check_identity", "ab_satisfies", "com_satisfies", "g_satisfies",
        "jplus_leq", "cr_sample_satisfies", "cr_witness", "ab_witness",
        "com_witness", "g_witness")],
    "varieties.cr_sample": [("varieties", "cr_semigroups")],
    "enumeration.tables": [("enumeration", "enumerate_semigroups")],
    "groups_catalog.build": [("groups_catalog", "all_groups_up_to_24")],
    "reducibility.triple": [("reducibility", "syntactic_solution_triple")],
    "reducibility.jplus": [("reducibility", "jplus_word_solution")],
    "reducibility.search": [("reducibility",
                             "bounded_omega_solution_search")],
    "reducibility.verify": [("reducibility", f) for f in (
        "verify_com_counterexample", "verify_groups_counterexample",
        "verify_cr_counterexample")],
    "words.cube_free": [("words", "is_cube_free")],
    "cli.main": [("cli", "main")],
}

COUNTS = ["regex.nfa_states", "syntactic.builds", "semigroup.constructed",
          "semigroup.assoc_triples", "terms.eval_calls", "terms.assignments"]

PER_LAYER = [layer + "_s" for layer in LAYERS] + COUNTS


def _term_variables(t):
    """Letters of an omsemi term, walked without calling the program."""
    out, stack = set(), [t]
    while stack:
        t = stack.pop()
        if hasattr(t, "ch"):
            out.add(t.ch)
        elif hasattr(t, "left"):
            stack += (t.left, t.right)
        else:
            stack.append(t.base)
    return out


def _assignments_tried(args, result):
    """Assignments find_identity_failure evaluated, in its product order."""
    S, lhs, rhs = args[:3]
    if result is None:
        return S.n ** len(_term_variables(lhs) | _term_variables(rhs))
    index = 0
    for letter in sorted(result):
        index = index * S.n + result[letter]
    return index + 1


def _count(counts, layer, qualname, args, result):
    if layer == "regex.thompson":
        counts["regex.nfa_states"] += result[0]
    elif layer == "syntactic.closure":
        counts["syntactic.builds"] += 1
    elif qualname == "FiniteSemigroup.__init__":
        counts["semigroup.constructed"] += 1
        counts["semigroup.assoc_triples"] += len(args[1]) ** 3
    elif layer == "terms.eval":
        counts["terms.eval_calls"] += 1
    elif qualname == "find_identity_failure":
        tried = _assignments_tried(args, result)
        counts["terms.assignments"] += tried
        # the two evaluations per assignment are calls inside terms
        counts["terms.eval_calls"] += 2 * tried


class Tracer:
    def __init__(self):
        self.enabled = False
        self.op = None
        self.spans = []          # [layer, start, end, parent, op]
        self._stack = []         # (module, span index) of open spans
        self.counts = dict.fromkeys(COUNTS, 0)

    def install(self, package):
        for modname in {m for entries in LAYERS.values() for m, _ in entries}:
            importlib.import_module("%s.%s" % (package, modname))
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == package or name.startswith(package + ".")]
        for layer, entries in LAYERS.items():
            for modname, qualname in entries:
                self._patch(sys.modules["%s.%s" % (package, modname)],
                            modules, layer, qualname)

    def _patch(self, defining, modules, layer, qualname):
        module = defining.__name__.rsplit(".", 1)[1]
        if "." in qualname:
            cls_name, meth = qualname.split(".")
            cls = getattr(defining, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                wrapped = self._wrap(raw.__func__, module, layer, qualname)
                setattr(cls, meth, classmethod(wrapped))
            else:
                setattr(cls, meth, self._wrap(raw, module, layer, qualname))
            return
        fn = getattr(defining, qualname)
        wrapped = self._wrap(fn, module, layer, qualname)
        for m in modules:
            if getattr(m, qualname, None) is not fn:
                continue
            if m is defining and qualname in fn.__code__.co_names:
                continue
            setattr(m, qualname, wrapped)

    def _wrap(self, fn, module, layer, qualname):
        if fn.__code__.co_flags & 0x20:      # generator function
            return self._wrap_generator(fn, module, layer)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            if stack and stack[-1][0] == module:
                result = fn(*args, **kwargs)
            else:
                result = tracer._span(module, layer, fn, args, kwargs)
            _count(tracer.counts, layer, qualname, args, result)
            return result

        return wrapper

    def _span(self, module, layer, fn, args, kwargs):
        parent = self._stack[-1][1] if self._stack else None
        span = [layer, 0.0, 0.0, parent, self.op]
        self.spans.append(span)
        self._stack.append((module, len(self.spans) - 1))
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def _wrap_generator(self, fn, module, layer):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                try:
                    if not tracer.enabled or (
                            tracer._stack and tracer._stack[-1][0] == module):
                        item = next(gen)
                    else:
                        item = tracer._span(module, layer, next, (gen,), {})
                except StopIteration:
                    return
                yield item

        return wrapper

    def layer_metrics(self):
        """Self time of each layer, in seconds, and the counts."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent, op in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {layer + "_s": 0.0 for layer in LAYERS}
        for (layer, start, end, parent, op), inner in zip(self.spans, child):
            out[layer + "_s"] += end - start - inner
        out.update(self.counts)
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
