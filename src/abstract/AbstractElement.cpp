//===- AbstractElement.cpp - Abstract domain element interface --------------===//

#include "abstract/AbstractElement.h"

using namespace charon;

AbstractElement::~AbstractElement() = default;
