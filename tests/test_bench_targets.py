"""The benchmark's tracer looks up each of its targets by module and
attribute name; a renamed or removed function would break traced runs."""

import importlib
import importlib.util
import os

TRACE = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                     "abqbench", "trace.py")


def load_targets():
    spec = importlib.util.spec_from_file_location("abqbench_trace", TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_trace_target_resolves():
    targets = load_targets()
    assert targets
    for mod_name, attr, span in targets:
        owner = importlib.import_module("abquiver." + mod_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            # The tracer replaces the method on the class that defines it.
            target = vars(getattr(owner, cls_name)).get(meth)
        else:
            target = getattr(owner, attr, None)
        assert callable(target), "%s: %s.%s is gone" % (span, mod_name, attr)
