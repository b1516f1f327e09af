"""Builds perfect subgroups of direct products of finite perfect permutation
groups that surject onto every factor, and emits independently checkable
certificates of the construction.

The package namespace holds only `__version__`; every other name is
imported from the module that defines it, so a process compiles only the
layers it calls."""

__version__ = "0.10.0"
