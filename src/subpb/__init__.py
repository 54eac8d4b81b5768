"""Submodular participatory budgeting: elicitation methods, randomized
aggregation rules, exact expected-welfare evaluation, and machine-checked
welfare guarantees."""

__version__ = "0.1.0"
