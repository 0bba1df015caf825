// Seeded-bad fixture: src/ headers must use a FINELOG_<path>_H_ include
// guard and repo-root-relative includes. This file is never compiled.

#ifndef WRONG_GUARD_NAME_H  // bad: guard does not match FINELOG_<path>_H_
#define WRONG_GUARD_NAME_H

#include "../storage/page.h"  // bad: path traversal

#endif  // WRONG_GUARD_NAME_H
