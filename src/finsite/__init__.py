"""finsite: an exact workbench for finite sites, fibrations and sheaves.

The package itself re-exports nothing, so ``import finsite`` loads no
submodule; import names from ``finsite.<module>``.
"""

__version__ = "0.1.0"
