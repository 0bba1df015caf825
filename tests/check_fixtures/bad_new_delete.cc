// Seeded-bad fixture: raw new/delete are banned; ownership must go through
// smart pointers (the `unique_ptr<T>(new T(...))` factory idiom is the one
// sanctioned use of `new`). This file is never compiled.

struct Widget {
  int x = 0;
};

int BadOwnership() {
  Widget* w = new Widget();  // bad: raw new, no owning smart pointer
  int x = w->x;
  delete w;  // bad: raw delete
  return x;
}
