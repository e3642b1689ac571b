"""The abquiver benchmark: workloads, tracing and independent checks.

``harness`` drives a workload in a closed loop and computes the metrics;
``model_queries``, ``all_modules`` and ``nori_integer`` generate the inputs
and check the answers with ``pp`` and ``exact``, which share no code with
the package under test; ``trace`` records spans around the package's
layers from outside.
"""
