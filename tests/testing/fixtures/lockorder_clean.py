"""The same two-lock workloads with one global acquisition order.

Every path takes ``alpha`` (or ``accounts``) strictly before ``beta``
(``audit``), so the lock-order graph is acyclic: the runtime sanitizer
records no violation when this executes.
"""

import threading


class OrderedPair:
    def __init__(self):
        self._alpha_lock = threading.Lock()
        self._beta_lock = threading.Lock()
        self.value = 0

    def ab(self):
        with self._alpha_lock:
            with self._beta_lock:
                self.value += 1

    def also_ab(self):
        with self._alpha_lock:
            with self._beta_lock:
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
            self._record(amount)

    def _record(self, amount):
        with self._audit_lock:
            self.entries += 1

    def audit(self):
        with self._accounts_lock:  # same accounts -> audit order as transfer
            with self._audit_lock:
                return self.balance, self.entries
