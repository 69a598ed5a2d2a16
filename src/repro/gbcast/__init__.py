"""Generic broadcast: conflict relations + thrifty implementation."""
