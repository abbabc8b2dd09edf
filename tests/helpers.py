"""Builders of test data shared by the test modules."""

from invlab.spectral import Field, dealias, forward


def band_field(grid, values):
    """The field of the two-thirds band of nodal values, as a run builds its initial data."""
    return Field(grid, dealias(forward(grid, values)))
