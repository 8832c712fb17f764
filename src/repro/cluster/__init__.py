"""Distributed-cluster simulation: network, collectives, partitioning,
the horizontal-to-vertical transformation and bitmaps."""
