"""Seeded lock-order inversions: the runtime sanitizer must record each
cycle when this file is executed (see ``tests/testing/test_sanitizer.py``).

``InvertedPair`` inverts directly inside one class; ``Ledger`` inverts
interprocedurally — ``transfer`` holds the accounts lock while a callee
takes the audit lock, and ``audit`` nests them the other way round.
"""

import threading


class InvertedPair:
    def __init__(self):
        self._alpha_lock = threading.Lock()
        self._beta_lock = threading.Lock()
        self.value = 0

    def ab(self):
        with self._alpha_lock:
            with self._beta_lock:  # alpha -> beta
                self.value += 1

    def ba(self):
        with self._beta_lock:
            with self._alpha_lock:  # beta -> alpha closes the cycle
                self.value -= 1


class Ledger:
    def __init__(self):
        self._accounts_lock = threading.Lock()
        self._audit_lock = threading.Lock()
        self.balance = 0
        self.entries = 0

    def transfer(self, amount):
        with self._accounts_lock:
            self.balance += amount
            self._record(amount)  # callee takes audit under accounts

    def _record(self, amount):
        with self._audit_lock:
            self.entries += 1

    def audit(self):
        with self._audit_lock:
            with self._accounts_lock:  # opposite nesting order
                return self.balance, self.entries
