"""silting-forge: exact computation for silting and Gorenstein-silting theory
over finite-dimensional algebras, with certified verdicts and a CLI."""

__version__ = "0.1.0"

#: Names of the theorem suites in :mod:`silting_forge.suites`; defined here so
#: that the CLI parser lists them without importing the suites.
SUITES = ("idempotent", "tensor", "gluing", "all")
