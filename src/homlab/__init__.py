"""homlab: exact combinatorics lab for container bounds, homogeneous-set
counting, tournament reductions, and the associated parameter calculus."""

__version__ = "0.1.0"
