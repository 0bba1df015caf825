// Seeded-bad fixture: fail-point strings must match the
// <node>.<component>.<op> grammar and be unique across call sites.
// This file is never compiled.

struct FakeInjector {
  int Evaluate(const char* point, unsigned long size) {
    (void)point;
    (void)size;
    return 0;
  }
};

int BadFailPoints(FakeInjector* injector) {
  int n = 0;
  n += injector->Evaluate("server.disk", 0);        // bad: only two segments
  n += injector->Evaluate("Server.Disk.Page", 0);   // bad: not lower_snake
  n += injector->Evaluate("client0.log.force", 0);  // ok (first use)
  n += injector->Evaluate("client0.log.force", 0);  // bad: duplicate point
  return n;
}
